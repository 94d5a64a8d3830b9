// The bad tree's one driver. bitpush_lint reads examples/ for its includes
// only, so its std::rand call below is no determinism finding. It reaches
// every src/ file but src/core/orphan.{h,cc}: the headers directly, and
// the headerless translation units by including them.

#include <cstdlib>

#include "core/missing_include.h"
#include "core/using_ns.h"
#include "core/wrong_guard.h"
#include "federated/shard/merge.h"
#include "persist/journal.h"

#include "core/bad_waiver.cc"
#include "core/determinism_bad.cc"
#include "core/intrinsics_bad.cc"
#include "core/privacy_bad.cc"
#include "core/privacy_good.cc"
#include "core/privacy_waived.cc"
#include "core/timer_waived.cc"
#include "federated/shard/merge_meter.cc"
#include "federated/shard/unmetered_shard.cc"
#include "obs/stable_bad.cc"
#include "obs/stable_event_bad.cc"

int main() { return std::rand(); }
