#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "data/file_source.h"

namespace bitpush {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

TEST(FileSourceTest, LoadsValuesSkippingBlanksAndComments) {
  const std::string path = TempPath("values.txt");
  WriteFile(path, "# header comment\n1.5\n\n  \n42\n-3e2\n");
  Dataset data;
  std::string error;
  ASSERT_TRUE(LoadDatasetFromFile(path, &data, &error)) << error;
  EXPECT_EQ(data.values(), (std::vector<double>{1.5, 42.0, -300.0}));
  EXPECT_DOUBLE_EQ(data.truth().mean, (1.5 + 42.0 - 300.0) / 3.0);
}

TEST(FileSourceTest, MissingFileReportsError) {
  Dataset data("untouched", {7.0});
  std::string error;
  EXPECT_FALSE(LoadDatasetFromFile(TempPath("nope.txt"), &data, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
  // Output untouched on failure.
  EXPECT_EQ(data.values(), (std::vector<double>{7.0}));
}

TEST(FileSourceTest, MalformedLineReportsLineNumber) {
  const std::string path = TempPath("bad.txt");
  WriteFile(path, "1\n2\nnot_a_number\n");
  Dataset data;
  std::string error;
  EXPECT_FALSE(LoadDatasetFromFile(path, &data, &error));
  EXPECT_NE(error.find(":3:"), std::string::npos);
  EXPECT_NE(error.find("not_a_number"), std::string::npos);
}

TEST(FileSourceTest, TrailingWhitespaceTolerated) {
  const std::string path = TempPath("ws.txt");
  WriteFile(path, "3.25  \t\n");
  Dataset data;
  ASSERT_TRUE(LoadDatasetFromFile(path, &data, nullptr));
  EXPECT_EQ(data.values(), (std::vector<double>{3.25}));
}

TEST(FileSourceTest, TrailingGarbageRejected) {
  const std::string path = TempPath("garbage.txt");
  WriteFile(path, "3.25abc\n");
  Dataset data;
  EXPECT_FALSE(LoadDatasetFromFile(path, &data, nullptr));
}

TEST(FileSourceTest, EmptyFileGivesEmptyDataset) {
  const std::string path = TempPath("empty.txt");
  WriteFile(path, "");
  Dataset data("old", {1.0});
  ASSERT_TRUE(LoadDatasetFromFile(path, &data, nullptr));
  EXPECT_TRUE(data.empty());
}

TEST(FileSourceTest, SaveLoadRoundTripIsExact) {
  const std::string path = TempPath("roundtrip.txt");
  const Dataset original("orig",
                         {0.1, -1e300, 12345.6789, 0.0, 3.0e-15});
  // One value per line at %.17g, the shortest format that round-trips
  // every double.
  std::string contents;
  for (const double value : original.values()) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g\n", value);
    contents += buffer;
  }
  WriteFile(path, contents);
  std::string error;
  Dataset loaded;
  ASSERT_TRUE(LoadDatasetFromFile(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), original.size());
  for (int64_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.values()[static_cast<size_t>(i)],
                     original.values()[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace bitpush
