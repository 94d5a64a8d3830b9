#ifndef BITPUSH_CORE_ORPHAN_H_
#define BITPUSH_CORE_ORPHAN_H_

// The one module no driver reaches: only tests/mini_fuzz_test.cc includes
// it, and a test is not a driver. orphan.h and orphan.cc are the tree's
// two unreached-module findings; every other check stays silent on them.

namespace fixture {

int OrphanValue();

}  // namespace fixture

#endif  // BITPUSH_CORE_ORPHAN_H_
