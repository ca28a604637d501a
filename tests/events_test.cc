/**
 * @file
 * Unit tests for the event framework: field schemas, event objects,
 * SensorManager accounting, and the Binder channel.
 */

#include <gtest/gtest.h>

#include <set>

#include "events/binder.h"
#include "events/event.h"
#include "events/field.h"
#include "events/sensor_manager.h"
#include "soc/soc.h"
#include "util/logging.h"

namespace snip {
namespace events {
namespace {

// -------------------------------------------------------- FieldSchema

TEST(FieldSchema, RegistersInputsAndOutputs)
{
    FieldSchema s;
    FieldId a = s.addInput("in.a", InputCategory::Event, 4);
    FieldId b = s.addOutput("out.b", OutputCategory::Temp, 16);
    EXPECT_NE(a, b);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.def(a).name, "in.a");
    EXPECT_EQ(s.def(a).side, FieldSide::Input);
    EXPECT_EQ(s.def(b).out_cat, OutputCategory::Temp);
    EXPECT_EQ(s.find("in.a"), a);
    EXPECT_EQ(s.find("nope"), kInvalidField);
}

TEST(FieldSchema, DuplicateNameFatal)
{
    bool prev = util::setThrowOnError(true);
    FieldSchema s;
    s.addInput("x", InputCategory::Event, 4);
    EXPECT_THROW(s.addInput("x", InputCategory::History, 4),
                 std::runtime_error);
    util::setThrowOnError(prev);
}

TEST(FieldSchema, ZeroSizeFatal)
{
    bool prev = util::setThrowOnError(true);
    FieldSchema s;
    EXPECT_THROW(s.addInput("x", InputCategory::Event, 0),
                 std::runtime_error);
    util::setThrowOnError(prev);
}

TEST(FieldSchema, BytesOf)
{
    FieldSchema s;
    FieldId a = s.addInput("a", InputCategory::Event, 4);
    FieldId b = s.addInput("b", InputCategory::History, 100);
    s.addOutput("c", OutputCategory::Temp, 16);
    std::vector<FieldValue> vals = {{a, 1}, {b, 2}};
    EXPECT_EQ(s.bytesOf(vals), 104u);
    EXPECT_EQ(s.totalInputBytes(), 104u);
    EXPECT_EQ(s.totalOutputBytes(), 16u);
}

TEST(FieldSchema, UnknownIdPanics)
{
    bool prev = util::setThrowOnError(true);
    FieldSchema s;
    EXPECT_THROW(s.def(99), std::runtime_error);
    util::setThrowOnError(prev);
}

TEST(FieldValues, CanonicalizeSorts)
{
    std::vector<FieldValue> v = {{3, 30}, {1, 10}, {2, 20}};
    canonicalize(v);
    EXPECT_EQ(v[0].id, 1u);
    EXPECT_EQ(v[2].id, 3u);
}

TEST(FieldValues, FindField)
{
    std::vector<FieldValue> v = {{1, 10}, {5, 50}};
    ASSERT_NE(findField(v, 5), nullptr);
    EXPECT_EQ(findField(v, 5)->value, 50u);
    EXPECT_EQ(findField(v, 2), nullptr);
}

TEST(FieldValues, HashOrderInsensitive)
{
    std::vector<FieldValue> a = {{1, 10}, {2, 20}};
    std::vector<FieldValue> b = {{2, 20}, {1, 10}};
    EXPECT_EQ(hashFields(a), hashFields(b));
}

TEST(FieldValues, HashValueSensitive)
{
    std::vector<FieldValue> a = {{1, 10}};
    std::vector<FieldValue> b = {{1, 11}};
    std::vector<FieldValue> c = {{2, 10}};
    EXPECT_NE(hashFields(a), hashFields(b));
    EXPECT_NE(hashFields(a), hashFields(c));
}

TEST(CategoryNames, AllNamed)
{
    EXPECT_STREQ(inputCategoryName(InputCategory::Event), "In.Event");
    EXPECT_STREQ(inputCategoryName(InputCategory::History),
                 "In.History");
    EXPECT_STREQ(inputCategoryName(InputCategory::Extern),
                 "In.Extern");
    EXPECT_STREQ(outputCategoryName(OutputCategory::Temp), "Out.Temp");
    EXPECT_STREQ(outputCategoryName(OutputCategory::History),
                 "Out.History");
    EXPECT_STREQ(outputCategoryName(OutputCategory::Extern),
                 "Out.Extern");
}

// -------------------------------------------------------------- Event

TEST(EventObject, SizesInPaperRange)
{
    for (int t = 0; t < kNumEventTypes; ++t) {
        uint32_t bytes = eventObjectBytes(static_cast<EventType>(t));
        EXPECT_GE(bytes, 2u) << eventTypeName(static_cast<EventType>(t));
        EXPECT_LE(bytes, 640u)
            << eventTypeName(static_cast<EventType>(t));
    }
    EXPECT_EQ(eventObjectBytes(EventType::CameraFrame), 640u);
}

TEST(EventObject, RawSamplesPositive)
{
    for (int t = 0; t < kNumEventTypes; ++t) {
        EXPECT_GE(rawSamplesPerEvent(static_cast<EventType>(t)), 1u);
    }
    // A swipe is a series of touch samples.
    EXPECT_GT(rawSamplesPerEvent(EventType::Swipe),
              rawSamplesPerEvent(EventType::Touch));
}

TEST(EventObject, NamesDistinct)
{
    std::set<std::string> names;
    for (int t = 0; t < kNumEventTypes; ++t)
        names.insert(eventTypeName(static_cast<EventType>(t)));
    EXPECT_EQ(names.size(), static_cast<size_t>(kNumEventTypes));
}

// ------------------------------------------------------ SensorManager

TEST(SensorManager, ChargesSamplingAndAssembly)
{
    soc::Soc soc;
    SensorManager mgr(soc);
    EventObject ev;
    ev.type = EventType::Swipe;
    mgr.deliver(ev);
    EXPECT_EQ(soc.sensorHub().samplesTaken(),
              rawSamplesPerEvent(EventType::Swipe));
    EXPECT_GT(soc.cpu().littleInstructions(), 0u);
    EXPECT_GT(soc.memory().bytesMoved(), 0u);
    EXPECT_EQ(soc.cpu().bigInstructions(), 0u);
}

TEST(SensorManager, CameraGoesThroughCapture)
{
    soc::Soc soc;
    SensorManager mgr(soc);
    EventObject ev;
    ev.type = EventType::CameraFrame;
    mgr.deliver(ev);
    EXPECT_EQ(soc.sensorHub().cameraFrames(), 1u);
    EXPECT_EQ(soc.sensorHub().samplesTaken(), 0u);
}

// ------------------------------------------------------------- Binder

TEST(Binder, ChargesTransactionAndCountsBytes)
{
    soc::Soc soc;
    BinderChannel binder(soc);
    EventObject ev;
    ev.type = EventType::Touch;
    binder.transfer(ev);
    // Two copies per transaction (in + out).
    EXPECT_EQ(soc.memory().bytesMoved(),
              2ull * eventObjectBytes(EventType::Touch));
}

}  // namespace
}  // namespace events
}  // namespace snip
