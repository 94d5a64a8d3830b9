// Hooks through which the durable-state layer (src/persist/) observes — and
// on recovery, short-circuits — query execution.
//
// The recovery model restores closed rounds and re-executes open ones:
// after a crash, the coordinator re-runs the interrupted query with the
// same forked RNG streams, and a recorder installed here serves back each
// round whose kRoundClosed record survived. Such a round is *restored*,
// never re-run — in particular a completed round-1 probe is never
// re-probed, so no client is ever asked for a second bit by a recovering
// server. A round that had not closed re-executes from its RNG fork.

#ifndef BITPUSH_FEDERATED_PERSIST_HOOKS_H_
#define BITPUSH_FEDERATED_PERSIST_HOOKS_H_

#include <cstdint>
#include <vector>

#include "federated/server.h"

namespace bitpush {

class QueryRecorder {
 public:
  virtual ~QueryRecorder() = default;

  // Consulted before a round runs over `cohort` (the partition indices the
  // round is given, in order). Returning true means the round completed
  // (its kRoundClosed record was journaled) before the crash: `*out` is
  // filled with the recorded outcome and the round is skipped entirely.
  // Returning false lets the round execute normally.
  virtual bool RestoreRound(int64_t round_id,
                            const std::vector<int64_t>& cohort,
                            RoundOutcome* out) = 0;

  // A live round over `cohort` completed; called with its full outcome
  // before the query proceeds past the round boundary.
  virtual void OnRoundClosed(int64_t round_id,
                             const std::vector<int64_t>& cohort,
                             const RoundOutcome& outcome) = 0;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_PERSIST_HOOKS_H_
