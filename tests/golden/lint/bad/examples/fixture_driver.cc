// The bad tree's one driver. bitpush_lint reads examples/ for its includes
// and identifiers only, so its std::rand call below is no determinism
// finding. It reaches every src/ file but src/core/orphan.{h,cc}: the
// headers directly, and the headerless translation units by including
// them. It names every fixture function but OrphanValue, the tree's one
// unreached-function finding.

#include <cstdlib>
#include <vector>

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
#include "core/stale_waiver.cc"
#include "core/timer_waived.cc"
#include "federated/shard/merge_meter.cc"
#include "federated/shard/unmetered_shard.cc"
#include "obs/stable_bad.cc"
#include "obs/stable_event_bad.cc"

int main() {
  std::vector<unsigned char> out;
  fixture::Leak(&out);
  fixture::Submit(nullptr, &out);
  fixture::Replay(&out);
  fixture::Register();
  fixture::RegisterStableInObs();
  fixture::EmitStableInObs();
  bitpush::ChargeDuringMerge(nullptr, 1, 2);
  bitpush::FabricateShardReports(4, nullptr);
  return static_cast<int>(fixture::AmbientEntropy() +
                          fixture::BroadcastLow(1) + fixture::Elapsed()) +
         fixture::TouchCovered() + fixture::StaleWaiverHost() + std::rand();
}
