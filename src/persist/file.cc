#include "persist/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "util/check.h"

namespace bitpush {

namespace {

std::string IoError(const std::string& action, const std::string& path,
                    int errnum) {
  return action + " " + path + ": " + std::strerror(errnum);
}

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out,
                   bool* found, std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(found != nullptr);
  BITPUSH_CHECK(error != nullptr);
  out->clear();
  *found = false;
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    if (errno == ENOENT) return true;
    *error = IoError("open", path, errno);
    return false;
  }
  // Sized from fstat, one byte over so that the read which meets the end
  // of the file needs no growth; a stale size only costs a resize.
  struct stat info {};
  size_t capacity = 4096;
  if (::fstat(fileno(file.get()), &info) == 0 && info.st_size > 0) {
    capacity = static_cast<size_t>(info.st_size) + 1;
  }
  std::vector<uint8_t> data(capacity);
  size_t size = 0;
  for (;;) {
    size += std::fread(data.data() + size, 1, data.size() - size, file.get());
    if (size < data.size()) break;  // end of file, or an error
    data.resize(2 * data.size());
  }
  if (std::ferror(file.get()) != 0) {
    *error = IoError("read", path, errno);
    return false;
  }
  data.resize(size);
  *out = std::move(data);
  *found = true;
  return true;
}

bool ReplaceFile(const std::string& path, bool sync,
                 const std::function<void(const FileSink& sink)>& write,
                 std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  const std::string temp_path = path + ".tmp";
  File file(std::fopen(temp_path.c_str(), "wb"));
  if (file == nullptr) {
    *error = IoError("open", temp_path, errno);
    return false;
  }
  bool wrote = true;
  write([&](const uint8_t* data, size_t size) {
    // An empty piece may come with a null pointer, which fwrite declares
    // nonnull.
    if (wrote && size > 0) {
      wrote = std::fwrite(data, 1, size, file.get()) == size;
    }
  });
  const bool flushed = wrote && std::fflush(file.get()) == 0;
  const bool synced = flushed && (!sync || ::fsync(fileno(file.get())) == 0);
  const int write_errno = errno;
  const bool closed = std::fclose(file.release()) == 0;
  if (!synced || !closed) {
    *error = IoError("write", temp_path, synced ? errno : write_errno);
    std::remove(temp_path.c_str());
    return false;
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    *error = IoError("rename " + temp_path + " to", path, errno);
    std::remove(temp_path.c_str());
    return false;
  }
  return !sync || SyncParentDir(path, error);
}

bool ReplaceFile(const std::string& path, std::span<const uint8_t> bytes,
                 bool sync, std::string* error) {
  return ReplaceFile(
      path, sync,
      [&bytes](const FileSink& sink) { sink(bytes.data(), bytes.size()); },
      error);
}

bool SyncParentDir(const std::string& path, std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0              ? std::string("/")
                                                    : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    *error = IoError("open state dir", dir, errno);
    return false;
  }
  const bool synced = ::fsync(fd) == 0;
  if (!synced) *error = IoError("fsync state dir", dir, errno);
  ::close(fd);
  return synced;
}

}  // namespace bitpush
