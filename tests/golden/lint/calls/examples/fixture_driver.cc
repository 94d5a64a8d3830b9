// The calls tree's driver. Every identifier on its code lines starts the
// unreached-function walk; the comments and strings here do not count.

#include "core/walk.h"

int main() {
  const fixture::Holder holder(3);
  FIXTURE_CHECK(holder.value() > 0);
  const fixture::Box box(holder.value());
  const fixture::Square square;
  const fixture::Shape& shape = square;
  return fixture::a::Shared() + fixture::Table().inc(shape.Area(2));
}
