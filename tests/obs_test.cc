/**
 * @file
 * Unit tests for the obs layer: registry find-or-create semantics
 * and handle stability, merge rules (counters sum, gauges last
 * writer, timers/histograms merge), span nesting and the disabled
 * no-op contract, and the JSON/table sinks.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/memo_table.h"
#include "core/scheme.h"
#include "games/registry.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "util/rng.h"

namespace snip {
namespace obs {
namespace {

// ----------------------------------------------------------- Registry

TEST(Registry, FindOrCreate)
{
    Registry reg;
    EXPECT_TRUE(reg.empty());
    reg.counter("a").add(2);
    reg.counter("a").add(3);
    EXPECT_EQ(reg.counterValue("a"), 5u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
    EXPECT_FALSE(reg.empty());

    reg.gauge("g").set(1.5);
    reg.gauge("g").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("g"), 2.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("missing"), 0.0);

    reg.timer("t").add(0.1);
    ASSERT_NE(reg.findTimer("t"), nullptr);
    EXPECT_EQ(reg.findTimer("t")->count(), 1u);
    EXPECT_EQ(reg.findTimer("missing"), nullptr);

    reg.histogram("h").add(4.0);
    ASSERT_NE(reg.findHistogram("h"), nullptr);
    EXPECT_EQ(reg.findHistogram("h")->count(), 1u);
    EXPECT_EQ(reg.findHistogram("missing"), nullptr);
}

// The hot-path contract: a Counter handle resolved once must stay
// valid while later metric creations rebalance the maps.
TEST(Registry, HandlesAreStable)
{
    Registry reg;
    Counter &c = reg.counter("first");
    for (int i = 0; i < 256; ++i)
        reg.counter("extra." + std::to_string(i));
    c.add(7);
    EXPECT_EQ(reg.counterValue("first"), 7u);
    EXPECT_EQ(&c, &reg.counter("first"));
}

TEST(Registry, MergeSemantics)
{
    Registry a, b;
    a.counter("c").add(1);
    b.counter("c").add(2);
    b.counter("only_b").add(9);
    a.gauge("g").set(1.0);
    b.gauge("g").set(5.0);
    a.timer("t").add(1.0);
    b.timer("t").add(3.0);
    a.histogram("h").add(2.0);
    b.histogram("h").add(2.0);

    a.merge(b);
    EXPECT_EQ(a.counterValue("c"), 3u);
    EXPECT_EQ(a.counterValue("only_b"), 9u);
    // Gauges are last-writer-wins.
    EXPECT_DOUBLE_EQ(a.gaugeValue("g"), 5.0);
    EXPECT_EQ(a.findTimer("t")->count(), 2u);
    EXPECT_DOUBLE_EQ(a.findTimer("t")->sum(), 4.0);
    EXPECT_EQ(a.findHistogram("h")->buckets().at(2), 2u);
}

TEST(Registry, MergeEmptyIsNoop)
{
    Registry a, empty;
    a.counter("c").add(1);
    a.merge(empty);
    EXPECT_EQ(a.counterValue("c"), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.counterValue("c"), 1u);
}

// --------------------------------------------------------------- Span

TEST(Span, RecordsIntoTimer)
{
    Registry reg;
    {
        Span s(&reg, "phase");
        EXPECT_EQ(s.path(), "phase");
        EXPECT_GE(s.elapsedSeconds(), 0.0);
    }
    const util::Summary *t = reg.findTimer("span.phase");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->count(), 1u);
    EXPECT_GE(t->sum(), 0.0);
}

TEST(Span, NestedPaths)
{
    Registry reg;
    {
        Span outer(&reg, "shrink");
        EXPECT_EQ(Span::current(), &outer);
        {
            Span inner(&reg, "pfi");
            EXPECT_EQ(inner.path(), "shrink.pfi");
            EXPECT_EQ(Span::current(), &inner);
        }
        EXPECT_EQ(Span::current(), &outer);
    }
    EXPECT_EQ(Span::current(), nullptr);
    EXPECT_NE(reg.findTimer("span.shrink"), nullptr);
    EXPECT_NE(reg.findTimer("span.shrink.pfi"), nullptr);
}

// A disabled span must not perturb the ambient parent chain: an
// enabled child opened under it attaches to the enabled grandparent.
TEST(Span, NullRegistryIsInert)
{
    Registry reg;
    {
        Span outer(&reg, "outer");
        {
            Span off(nullptr, "invisible");
            EXPECT_EQ(off.path(), "");
            EXPECT_DOUBLE_EQ(off.elapsedSeconds(), 0.0);
            EXPECT_EQ(Span::current(), &outer);
            Span child(&reg, "child");
            EXPECT_EQ(child.path(), "outer.child");
        }
    }
    EXPECT_TRUE(reg.findTimer("span.invisible") == nullptr);
    EXPECT_NE(reg.findTimer("span.outer.child"), nullptr);
}

// -------------------------------------------------------------- Sinks

TEST(Sinks, JsonShape)
{
    Registry reg;
    reg.counter("lookup.hits").add(3);
    reg.gauge("session.hit_rate").set(0.75);
    reg.timer("span.shrink").add(1.25);
    reg.histogram("lookup.bytes_hist").add(0.5);
    reg.histogram("lookup.bytes_hist").add(100.0);

    std::string json = toJson(reg);
    EXPECT_NE(json.find("\"lookup.hits\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"session.hit_rate\": 0.75"),
              std::string::npos);
    EXPECT_NE(json.find("\"span.shrink\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    // The underflow bucket serializes under its sentinel key 0; the
    // human-readable "<1" form is TableSink-only.
    EXPECT_NE(json.find("\"0\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"64\": 1"), std::string::npos);

    std::ostringstream os;
    JsonSink sink(os);
    sink.write(reg);
    EXPECT_EQ(os.str(), json);
}

TEST(Sinks, JsonEscapesAndNonFinite)
{
    Registry reg;
    reg.counter("weird \"name\"\n").add(1);
    reg.gauge("bad").set(std::numeric_limits<double>::quiet_NaN());
    std::string json = toJson(reg);
    EXPECT_NE(json.find("\\\"name\\\"\\n"), std::string::npos);
    // Non-finite values serialize as 0 so the output always parses.
    EXPECT_NE(json.find("\"bad\": 0"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Sinks, EmptyRegistryJsonParses)
{
    Registry reg;
    std::string json = toJson(reg);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
}

TEST(Sinks, TableListsMetrics)
{
    Registry reg;
    reg.counter("decide.shortcircuit").add(42);
    reg.gauge("session.energy_j").set(3.5);
    std::ostringstream os;
    TableSink sink(os);
    sink.write(reg);
    std::string out = os.str();
    EXPECT_NE(out.find("decide.shortcircuit"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("session.energy_j"), std::string::npos);
}

// ------------------------------------------------- scheme telemetry

// Regression: decide.online_inserts must count actual overlay
// growth. Observing the same record twice (the second insert is
// deduplicated) or a record the frozen table already memoizes (the
// insert is skipped) must leave the counter unchanged.
TEST(SchemeTelemetry, OnlineInsertsCountOverlayGrowthOnly)
{
    auto game = games::makeGame("colorphun");
    core::MemoTable table(game->schema());
    table.setSelected(events::EventType::Touch,
                      game->necessaryInputIds(events::EventType::Touch));
    // One record memoized by the deployed (frozen) table.
    util::Rng rng(8);
    events::EventObject frozen_ev =
        game->makeEvent(events::EventType::Touch, 0.0, rng);
    games::HandlerExecution frozen_truth = game->process(frozen_ev);
    table.insert(frozen_truth);
    core::SnipModel model;
    model.game = game->name();
    model.table = table.freeze();

    Registry reg;
    core::SnipRuntimeConfig rcfg;
    rcfg.obs = &reg;
    core::SnipScheme s(model, rcfg);

    // A genuinely new observation grows the overlay: one insert.
    events::EventObject ev =
        game->makeEvent(events::EventType::Touch, 1.0, rng);
    games::HandlerExecution truth = game->process(ev);
    s.observe(truth);
    EXPECT_EQ(reg.counterValue("decide.online_inserts"), 1u);
    EXPECT_EQ(s.overlayEntries(), 1u);

    // Observing it again deduplicates: no growth, no count.
    s.observe(truth);
    EXPECT_EQ(reg.counterValue("decide.online_inserts"), 1u);
    EXPECT_EQ(s.overlayEntries(), 1u);

    // A record the frozen table holds is skipped entirely.
    s.observe(frozen_truth);
    EXPECT_EQ(reg.counterValue("decide.online_inserts"), 1u);
    EXPECT_EQ(s.overlayEntries(), 1u);

    // The overlay's size is exported next to the frozen table's.
    Registry tables;
    s.recordTableStats(tables);
    EXPECT_EQ(tables.gaugeValue("table.overlay_entries"), 1.0);
    EXPECT_EQ(tables.gaugeValue("table.overlay_bytes"),
              static_cast<double>(s.deployedTableBytes() -
                                  s.frozen().totalBytes()));
    EXPECT_GT(tables.gaugeValue("table.overlay_bytes"),
              static_cast<double>(core::MemoTable::kEntryHeaderBytes));
}

}  // namespace
}  // namespace obs
}  // namespace snip
