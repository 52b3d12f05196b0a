// Umbrella for the observability layer. One Obs is one observability
// domain; a verbs::Fabric owns one and every layer above charges into it.
#pragma once

#include "obs/counters.h"   // IWYU pragma: export
#include "obs/histogram.h"  // IWYU pragma: export
#include "obs/trace.h"      // IWYU pragma: export

namespace hatrpc::obs {

struct Obs {
  Counters counters;
  Tracer tracer;
};

}  // namespace hatrpc::obs
