// Fixture: one registration site per counter, grammar-conformant names; a
// tracer sample of an existing counter is not a re-registration.
#include "util/trace.hpp"

void register_good_counters(lobster::util::MetricRegistry& registry,
                            lobster::util::Tracer& tracer) {
  registry.counter("fixture.plane.pushes");
  registry.gauge("fixture.plane.depth");
  tracer.counter("fixture.plane.pushes", 0.0);
}
