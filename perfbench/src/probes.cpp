// Layer probes shared by more than one workload.

#include "probes.h"

#include "sim/engine.h"

namespace perfbench {

namespace {

/// Self-rescheduling event chains on one engine. Untagged chains only
/// schedule; tagged chains work like the serving layer's timers: every
/// step arms a timeout in the chain's generation, and every 8th step
/// cancels that generation wholesale and opens a new one.
struct Chains {
  homp::sim::Engine engine;
  bool tagged = false;
  std::uint64_t budget = 0;  ///< steps still to schedule
  std::vector<homp::sim::Engine::GenTag> gen;
  std::vector<std::uint64_t> steps;

  void step(std::size_t c) {
    ++steps[c];
    if (budget == 0) return;
    --budget;
    const double dt = 1e-6 * static_cast<double>(1 + (steps[c] + c) % 7);
    if (!tagged) {
      engine.schedule_after(dt, [this, c] { step(c); });
      return;
    }
    if (steps[c] % 8 == 0) {
      engine.cancel_generation(gen[c]);
      gen[c] = engine.new_generation();
    }
    engine.schedule_after(dt, [this, c] { step(c); }, gen[c]);
    engine.schedule_after(1e-3, [this, c] { ++steps[c]; }, gen[c]);
  }
};

}  // namespace

double engine_probe_ns(bool tagged, std::uint64_t events) {
  constexpr std::size_t kChains = 64;
  Chains ch;
  ch.tagged = tagged;
  ch.budget = events;
  ch.steps.assign(kChains, 0);
  for (std::size_t c = 0; c < kChains; ++c) {
    ch.gen.push_back(tagged ? ch.engine.new_generation() : 0);
    ch.engine.schedule_at(1e-7 * static_cast<double>(c),
                          [&ch, c] { ch.step(c); }, ch.gen[c]);
  }
  const double t0 = now_s();
  {
    Span s(tagged ? "sim.engine_tagged" : "sim.engine");
    ch.engine.run();
  }
  const double dt = now_s() - t0;
  const auto processed = ch.engine.events_processed();
  return processed == 0 ? 0.0 : dt / static_cast<double>(processed) * 1e9;
}

}  // namespace perfbench
