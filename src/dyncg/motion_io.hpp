#pragma once

#include <iosfwd>
#include <string>

#include "dyncg/motion.hpp"

// Plain-text serialization of motion systems.
//
// Format (line-oriented, '#' comments allowed):
//   dyncg-motion 1          header: format name + version
//   dim <d>
//   point <c00 c01 ...> ; <c10 c11 ...> ; ...   one ';'-separated list of
//                                               ascending coefficients per
//                                               coordinate
// Example — two linearly moving planar points:
//   dyncg-motion 1
//   dim 2
//   point 0 1 ; 0 0.5
//   point 10 -1 ; 2
namespace dyncg {

std::string to_text(const MotionSystem& system);

// Parsing and the file helpers: malformed text is a parse error carrying
// the line number, a missing or unwritable file an I/O error.
StatusOr<MotionSystem> try_motion_from_text(const std::string& text);
Status try_save_motion_system(const MotionSystem& system,
                              const std::string& path);
StatusOr<MotionSystem> try_load_motion_system(const std::string& path);

}  // namespace dyncg
