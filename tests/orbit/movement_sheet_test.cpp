#include "orbit/movement_sheet.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"
#include "orbit/constellation.hpp"

namespace qntn::orbit {
namespace {

Ephemeris sample_ephemeris(double duration = 3600.0, double step = 30.0) {
  const auto elements = qntn_constellation(6);
  return Ephemeris::generate(TwoBodyPropagator(elements[2]), duration, step);
}

TEST(MovementSheet, StringRoundTripPreservesTrajectory) {
  const Ephemeris original = sample_ephemeris();
  const std::string text = movement_sheet_to_string(original);
  const Ephemeris loaded = movement_sheet_from_string(text);
  ASSERT_EQ(loaded.sample_count(), original.sample_count());
  EXPECT_DOUBLE_EQ(loaded.step(), original.step());
  for (std::size_t i = 0; i < original.sample_count(); i += 7) {
    // Six decimal places of lat/lon/alt keep positions to ~0.2 m.
    EXPECT_NEAR(distance(loaded.sample(i), original.sample(i)), 0.0, 1.0) << i;
  }
}

TEST(MovementSheet, FileRoundTrip) {
  const Ephemeris original = sample_ephemeris(600.0, 30.0);
  const std::string path = ::testing::TempDir() + "/qntn_sheet_test.csv";
  save_movement_sheet(path, original);
  const Ephemeris loaded = load_movement_sheet(path);
  EXPECT_EQ(loaded.sample_count(), original.sample_count());
  EXPECT_NEAR(distance(loaded.position_ecef(300.0),
                       original.position_ecef(300.0)),
              0.0, 1.0);
}

TEST(MovementSheet, HeaderIsTheStkStyleSchema) {
  const std::string text = movement_sheet_to_string(sample_ephemeris(60.0, 30.0));
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "time_s,latitude_deg,longitude_deg,altitude_m");
}

TEST(MovementSheet, RejectsMalformedInput) {
  EXPECT_THROW((void)movement_sheet_from_string(""), Error);
  EXPECT_THROW((void)movement_sheet_from_string("wrong,header\n0,1,2,3\n"),
               Error);
  const std::string header = "time_s,latitude_deg,longitude_deg,altitude_m\n";
  // Too few samples.
  EXPECT_THROW((void)movement_sheet_from_string(header + "0,10,20,500000\n"),
               Error);
  // Malformed row.
  EXPECT_THROW(
      (void)movement_sheet_from_string(header + "0,10,20,5\n30,oops\n"), Error);
  // Non-uniform spacing.
  EXPECT_THROW((void)movement_sheet_from_string(
                   header + "0,10,20,5\n30,10,20,5\n90,10,20,5\n"),
               Error);
  // Time not starting at zero.
  EXPECT_THROW((void)movement_sheet_from_string(
                   header + "10,10,20,5\n40,10,20,5\n"),
               Error);
  // Missing file.
  EXPECT_THROW((void)load_movement_sheet("/nonexistent/sheet.csv"), Error);
}

TEST(MovementSheet, RaggedHorizonRoundTripsItsLastSampleTime) {
  // 100 s at 30 s: the last row is at 100 s, a 10 s partial step.
  const Ephemeris original = sample_ephemeris(100.0, 30.0);
  const std::string text = movement_sheet_to_string(original);
  EXPECT_NE(text.find("\n100.000000,"), std::string::npos);
  const Ephemeris loaded = movement_sheet_from_string(text);
  EXPECT_EQ(loaded.sample_count(), 5u);
  EXPECT_EQ(loaded.duration(), 100.0);
  for (double t : {45.0, 95.0, 100.0}) {
    EXPECT_NEAR(distance(loaded.position_ecef(t), original.position_ecef(t)),
                0.0, 1.5)
        << t;
  }
  // Only the last row may end a partial step.
  const std::string header = "time_s,latitude_deg,longitude_deg,altitude_m\n";
  EXPECT_THROW((void)movement_sheet_from_string(
                   header + "0,10,20,5\n30,10,20,5\n40,10,20,5\n70,10,20,5\n"),
               Error);
}

TEST(MovementSheet, LoadedSheetDrivesTheSimulator) {
  // The paper's workflow: import a movement sheet and attach it to a
  // satellite node. The Ephemeris API is the same either way.
  const Ephemeris original = sample_ephemeris(900.0, 30.0);
  const Ephemeris loaded =
      movement_sheet_from_string(movement_sheet_to_string(original));
  // Interpolated queries agree within the text round-trip tolerance.
  for (double t : {0.0, 123.0, 456.0, 900.0}) {
    EXPECT_NEAR(distance(loaded.position_ecef(t), original.position_ecef(t)),
                0.0, 1.5)
        << t;
  }
}

}  // namespace
}  // namespace qntn::orbit
