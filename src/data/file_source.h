// Loading client values from plain text files (one value per line), so the
// CLI and examples can run on real data exports rather than only the
// built-in generators. Lines may be blank or start with '#' (skipped).

#ifndef BITPUSH_DATA_FILE_SOURCE_H_
#define BITPUSH_DATA_FILE_SOURCE_H_

#include <string>

#include "data/dataset.h"

namespace bitpush {

// Parses `path`. Returns false (leaving `*out` untouched) when the file
// cannot be opened or any non-comment line fails to parse as a double;
// `*error` (if non-null) receives a human-readable reason.
bool LoadDatasetFromFile(const std::string& path, Dataset* out,
                         std::string* error);

}  // namespace bitpush

#endif  // BITPUSH_DATA_FILE_SOURCE_H_
