// Whole-file I/O for the durable coordinator's state files. This module
// and JournalWriter (persist/journal.h), which keeps the appends, are the
// only code that touches journal.wal and snapshot.bin: every whole-file
// read goes through ReadWholeFile, and every rewrite — a snapshot, a
// journal rewrite, a cut — through ReplaceFile. Its temp-sibling cycle
// leaves the old file or the new one after a process crash, never a mix,
// and with sync on after a power loss too. Each caller picks its sync
// policy (docs/PERSISTENCE.md §4 tabulates them).

#ifndef BITPUSH_PERSIST_FILE_H_
#define BITPUSH_PERSIST_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace bitpush {

// Reads the whole file at `path` into `*out`. A missing file is not an
// error: `*found` is set to false and `*out` left empty. Returns false
// with `*error` naming the path on any other open or read failure.
bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out,
                   bool* found, std::string* error);

// Receives the bytes of the file being written, in order.
using FileSink = std::function<void(const uint8_t* data, size_t size)>;

// Atomically replaces `path` with the bytes `write` hands its sink, so a
// caller can stream a file it never holds whole. `sync` fsyncs both the
// file before the rename and the directory after it. Any failure up to
// and including the rename removes the `<path>.tmp` sibling, leaves
// `path` untouched and returns false with `*error` naming the path; a
// failed directory fsync returns false with the new file in place.
bool ReplaceFile(const std::string& path, bool sync,
                 const std::function<void(const FileSink& sink)>& write,
                 std::string* error);
// The same, for bytes at hand: a file image, or a range of one.
bool ReplaceFile(const std::string& path, std::span<const uint8_t> bytes,
                 bool sync, std::string* error);

// Fsyncs the directory containing `path`, making a preceding rename or
// file creation inside it durable across power loss. Returns false with
// `*error` set on failure.
bool SyncParentDir(const std::string& path, std::string* error);

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_FILE_H_
