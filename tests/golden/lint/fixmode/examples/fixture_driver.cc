// The fixmode tree's driver, read for its includes only: it reaches both
// src/ files, so after --fix the tree is clean.

#include "core/fix_guard.h"

#include "core/sloppy_waiver.cc"

int main() { return 0; }
