// A waiver that suppresses no finding is stale, and waiver-syntax flags
// it: nothing below breaks a header-hygiene rule. A lint run whose
// --checks subset leaves header-hygiene out does not judge it.

namespace fixture {

int StaleWaiverHost() {
  // bitpush-lint: allow(header-hygiene): fixture waiver that suppresses nothing
  return 3;
}

}  // namespace fixture
