// Coverage fixture (the "fuzz" in the filename marks it as corpus): it
// exercises only the Covered record, leaving kGhost untested on purpose.
// Its include of core/orphan.h reaches nothing: tests are not drivers.

#include "core/orphan.h"
#include "persist/journal.h"

namespace fixture {

int FuzzOnce() {
  int out = 0;
  EncodeCoveredRecord(1, &out);
  return static_cast<int>(JournalRecordType::kCovered);
}

}  // namespace fixture
