#pragma once

#include <string>

// Revision stamping shared by every binary that reports its revision
// (the bench harness's BENCH_<name>.json, dyncg_load's BENCH_serve.json,
// dyncg_serve's `stats`).
//
// The configure-time DYNCG_GIT_REV stamp goes stale (or stays "-dirty") the
// moment the tree changes after cmake ran, so reports resolve the revision
// at *run time* when a git binary and the source tree are reachable, and
// only fall back to the baked-in stamp.  Both the stamp and the source
// directory are compiled into build_info.cpp alone (src/CMakeLists.txt).
namespace dyncg {

// "a277f7c" or "a277f7c-dirty" from git in the source tree; the baked-in
// configure-time stamp when git is unavailable; "unknown" when both fail.
std::string git_revision();

}  // namespace dyncg
