// Including a reached header (persist/journal.h) does not reach this file:
// a .cc with a same-stem header is reached only with that header.

#include "core/orphan.h"
#include "persist/journal.h"

namespace fixture {

int OrphanValue() { return 7; }

}  // namespace fixture
