// The fixmode tree's driver, read for its includes and identifiers only:
// it reaches both src/ files and the one function, so after --fix the tree
// is clean.

#include "core/fix_guard.h"

#include "core/sloppy_waiver.cc"

int main() { return static_cast<int>(fixture::SloppyWallSeconds()); }
