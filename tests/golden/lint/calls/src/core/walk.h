#ifndef BITPUSH_CORE_WALK_H_
#define BITPUSH_CORE_WALK_H_

// The calls tree: one case per rule of the unreached-function walk. The
// driver reaches every definition here except Orphan, ChainHead, ChainTail
// (which only the orphan ChainHead calls), TestOnly and Box::Twice (which
// only tests/walk_test.cc calls): the tree's five findings. Box::weight,
// which only the test calls too, is an exempt accessor, and Reference is
// waived.

namespace fixture {

// Reached only through the body of the macro the driver names, whose
// CheckStream destructor calls Fail.
#define FIXTURE_CHECK(condition) ::fixture::CheckStream(condition)

class CheckStream {
 public:
  explicit CheckStream(bool ok);
  ~CheckStream();

 private:
  bool ok_;
};

void Fail();

// Seed is called only from the constructor's init list.
class Holder {
 public:
  explicit Holder(int x);
  int value() const { return value_; }

 private:
  int value_;
  int calls_;
};

// Only a test calls weight and Twice. weight is a const member defined in
// its class whose body is one return statement, an accessor, so it is
// never flagged; Twice is const but not one return statement.
class Box {
 public:
  explicit Box(int v) : v_(v) {}
  int weight() const { return v_; }
  int Twice() const {
    const int twice = 2 * v_;
    return twice;
  }

 private:
  int v_;
};

// The driver calls Area through the base class; the override is reached
// by its name.
class Shape {
 public:
  virtual ~Shape() = default;
  virtual int Area(int side) const = 0;
};

class Square : public Shape {
 public:
  int Area(int side) const override {
    const int area = side * side;
    return area;
  }
};

// Increment and Decrement are named in Table's initializer, never called.
struct OpTable {
  int (*inc)(int);
  int (*dec)(int);
};

const OpTable& Table();

namespace a {
int Shared();
}  // namespace a

int Orphan();
int ChainHead();
int TestOnly();
int Reference();

}  // namespace fixture

#endif  // BITPUSH_CORE_WALK_H_
