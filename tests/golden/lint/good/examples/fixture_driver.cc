// The good tree's driver, read for its includes and identifiers only. Its
// headers reach wire.cc (the same-stem .cc) and metered.cc (a .cc without
// a header of its own that includes the reached wire.h); the other
// headerless translation units are built into the driver directly. It
// names every fixture function.

#include <vector>

#include "core/clean.h"
#include "federated/wire.h"

#include "core/determinism_waived.cc"
#include "federated/shard/metered_shard.cc"
#include "kernels/lanes.cc"
#include "obs/volatile_event.cc"

int main() {
  std::vector<unsigned char> out;
  fixture::Submit(nullptr, &out);
  fixture::EmitVolatileInObs();
  bitpush::ShardCollector collector;
  const double seconds = fixture::WallSeconds();
  return static_cast<int>(collector.Collect(2, 0).size()) +
         fixture::TouchFrame() + static_cast<int>(fixture::AddLanes(1, 2)) +
         static_cast<int>(seconds);
}
