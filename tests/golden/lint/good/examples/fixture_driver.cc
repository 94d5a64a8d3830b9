// The good tree's driver, read for its includes only. Its headers reach
// wire.cc (the same-stem .cc) and metered.cc (a .cc without a header of its
// own that includes the reached wire.h); the other headerless translation
// units are built into the driver directly.

#include "core/clean.h"
#include "federated/wire.h"

#include "core/determinism_waived.cc"
#include "federated/shard/metered_shard.cc"
#include "kernels/lanes.cc"
#include "obs/volatile_event.cc"

int main() { return 0; }
