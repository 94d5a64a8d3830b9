// A test is not a driver: what only this file calls stays unreached,
// except the in-class accessor and the waived reference.

#include "core/walk.h"

namespace fixture {

int WalkTest() {
  const Box box(4);
  return TestOnly() + box.weight() + box.Twice() + Reference();
}

}  // namespace fixture
