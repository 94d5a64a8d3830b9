#include "core/walk.h"

namespace fixture {
namespace {

int Seed(int x) { return x * 7; }

int Increment(int x) { return x + 1; }

int Decrement(int x) { return x - 1; }

int ChainTail() { return 11; }

}  // namespace

CheckStream::CheckStream(bool ok) : ok_(ok) {}

CheckStream::~CheckStream() {
  if (!ok_) Fail();
}

void Fail() {}

Holder::Holder(int x)
    : value_(Seed(x)),
      calls_(0) {}

const OpTable& Table() {
  static const OpTable kTable = {Increment, Decrement};
  return kTable;
}

namespace a {
int Shared() { return 1; }
}  // namespace a

// Reached only through its name collision with a::Shared.
namespace b {
int Shared() { return 2; }
}  // namespace b

int Orphan() { return 3; }

int ChainHead() { return ChainTail() + 1; }

int TestOnly() { return 5; }

// bitpush-lint: allow(unreached-function): fixture reference of a named test, budgeted like the tree's real oracles
int Reference() { return 6; }

}  // namespace fixture
