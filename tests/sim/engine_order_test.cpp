#include "sim/engine.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace homp::sim {
namespace {

/// The tie-break contract (docs/DETERMINISM.md, engine.h file comment):
/// events pop in strict (time, seq) lexicographic order — FIFO within a
/// timestamp, regardless of generation tag, scheduling nesting, or
/// cancellation history. Every byte-stable output in the repository
/// assumes exactly this; a change here is a breaking change to the
/// determinism model, not a tweak. set_reverse_ties(true) is the one
/// sanctioned deviation: newest-first within a timestamp.

/// One mixed scenario: N events at one timestamp across several
/// generations, interleaved with cancellations and zero-delay
/// reschedules. Returns the serialized pop order.
std::string run_tiebreak_scenario(bool reverse = false) {
  Engine e;
  e.set_reverse_ties(reverse);
  std::ostringstream log;
  const Engine::GenTag g1 = e.new_generation();
  const Engine::GenTag g2 = e.new_generation();
  const Engine::GenTag tags[] = {0, g1, g2, g1, 0, g2, g1, 0};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const int label = i;
    ids.push_back(e.schedule_at(
        1.0, [&log, label] { log << "a" << label << " "; }, tags[i % 8]));
  }
  // Cancellation must not disturb the survivors' relative order.
  e.cancel(ids[2]);
  e.cancel(ids[5]);
  // A pre-timestamp event that schedules into t=1.0: its child carries a
  // larger seq than every pre-scheduled event, so it pops last.
  e.schedule_at(0.5, [&] {
    log << "pre ";
    e.schedule_at(1.0, [&log] { log << "child "; });
  });
  // Same-timestamp zero-delay chains append in scheduling order too.
  e.schedule_at(1.0, [&] {
    log << "tail ";
    e.schedule_after(0.0, [&log] { log << "tail-child "; });
  });
  e.run();
  return log.str();
}

TEST(EngineOrder, TieBreakIsTimeThenSeq) {
  EXPECT_EQ(run_tiebreak_scenario(),
            "pre a0 a1 a3 a4 a6 a7 tail child tail-child ");
}

/// Reversed ties: newest-first within t=1.0. The child scheduled from
/// t=0.5 is the newest, and a zero-delay chain runs depth-first.
TEST(EngineOrder, ReversedTieBreakIsTimeThenNewestSeq) {
  EXPECT_EQ(run_tiebreak_scenario(/*reverse=*/true),
            "pre child tail tail-child a7 a6 a4 a3 a1 a0 ");
}

/// Byte-stability: the contract holds identically across 100 fresh
/// engines in one process (allocator state, uid counters, and prior
/// cancellations must not leak into pop order).
TEST(EngineOrder, ByteStableAcrossHundredRuns) {
  const std::string first = run_tiebreak_scenario();
  for (int i = 0; i < 99; ++i) {
    ASSERT_EQ(run_tiebreak_scenario(), first) << "run " << (i + 1);
  }
}

/// Many events, one timestamp, many generations: strict FIFO by seq.
TEST(EngineOrder, FifoWithinTimestampAcrossGenerations) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::GenTag> gens;
  for (int g = 0; g < 5; ++g) gens.push_back(e.new_generation());
  for (int i = 0; i < 50; ++i) {
    e.schedule_at(
        2.0, [&order, i] { order.push_back(i); },
        gens[static_cast<std::size_t>(i) % gens.size()]);
  }
  e.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

/// Reversal changes only the pop order: cancel() and cancel_generation()
/// still retire exactly their events, and the drained engine is flat.
TEST(EngineOrder, CancellationHoldsUnderReversedTies) {
  Engine e;
  e.set_reverse_ties(true);
  const Engine::GenTag g = e.new_generation();
  std::string log;
  const auto a = e.schedule_at(1.0, [&log] { log += "a "; });
  e.schedule_at(1.0, [&log] { log += "b "; }, g);
  e.schedule_at(1.0, [&log] { log += "c "; });
  e.schedule_at(1.0, [&log] { log += "d "; }, g);
  e.schedule_at(2.0, [&log] { log += "e "; }, g);
  EXPECT_TRUE(e.cancel(a));
  EXPECT_FALSE(e.cancel(a));
  EXPECT_EQ(e.pending_in(g), 3u);
  e.schedule_at(1.0, [&] {
    log += "f ";
    EXPECT_EQ(e.cancel_generation(g), 3u);
  });
  e.run();
  EXPECT_EQ(log, "f c ");
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.live_generations(), 0u);
  EXPECT_EQ(e.pending_in(g), 0u);
}

TEST(EngineOrder, ReverseTiesRequiresIdleEngine) {
  Engine e;
  e.schedule_at(1.0, [] {});
  EXPECT_THROW(e.set_reverse_ties(true), ConfigError);
  e.run();
  EXPECT_NO_THROW(e.set_reverse_ties(true));
}

/// The bug class --reverse-ties exposes: two causally unrelated events
/// at one timestamp both write one value, so the survivor depends on the
/// tie-break. Canonical and reversed order must disagree on it.
TEST(EngineOrder, ReversedTiesExposeSameTimestampWriteConflict) {
  for (const bool reverse : {false, true}) {
    Engine e;
    e.set_reverse_ties(reverse);
    int value = 0;
    e.schedule_at(1.0, [&value] { value = 1; });
    e.schedule_at(1.0, [&value] { value = 2; });
    e.run();
    EXPECT_EQ(value, reverse ? 1 : 2);
  }
}

}  // namespace
}  // namespace homp::sim
