#include "orbit/movement_sheet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>

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

// Parsing `text` must throw qntn::Error whose message contains `want`.
void expect_rejected(const std::string& text, const std::string& want) {
  try {
    (void)movement_sheet_from_string(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what() << "\nwant: " << want;
  }
}

TEST(MovementSheet, RejectsMalformedInput) {
  expect_rejected("", "line 1");
  expect_rejected("wrong,header\n0,1,2,3\n", "line 1");
  const std::string header = "time_s,latitude_deg,longitude_deg,altitude_m\n";
  const std::string row0 = "0,10,20,500000\n";
  // Too few samples.
  expect_rejected(header + row0, "at least two sample lines");
  // Malformed rows, each named by its file line.
  expect_rejected(header + "0,10,20,5\n30,oops\n", "line 3");
  expect_rejected(header + "0,10,20,500000xyz\n30,10,20,5\n", "line 2");
  expect_rejected(header + row0 + "30,10,20,500000,7\n", "line 3");
  expect_rejected(header + row0 + "30,10,20\n", "line 3");
  expect_rejected(header + row0 + "30,10,,500000\n", "line 3");
  expect_rejected(header + row0 + "30,10,20,500000,\n", "line 3");
  expect_rejected(header + row0 + "30 0,10,20,500000\n", "line 3");
  // Out-of-range and non-finite values.
  expect_rejected(header + row0 + "30,400,20,500000\n",
                  "line 3: latitude_deg");
  expect_rejected(header + row0 + "30,-90.5,20,500000\n",
                  "line 3: latitude_deg");
  expect_rejected(header + row0 + "30,10,180.5,500000\n",
                  "line 3: longitude_deg");
  expect_rejected(header + row0 + "30,10,20,-1e9\n", "line 3: altitude_m");
  expect_rejected(header + row0 + "30,10,20,-500000\n", "line 3: altitude_m");
  for (const std::string bad : {"nan", "inf", "-inf", "1e999"}) {
    expect_rejected(header + row0 + "30,10,20," + bad + "\n", "line 3");
    expect_rejected(header + row0 + bad + ",10,20,500000\n", "line 3");
  }
  // Non-uniform spacing names the file line, blank lines counted: the
  // fourth row is on line 6.
  expect_rejected(
      header + row0 + "30,10,20,5\n\n60,10,20,5\n95,10,20,5\n100,10,20,5\n",
      "line 6: non-uniform");
  expect_rejected(header + "0,10,20,5\n30,10,20,5\n90,10,20,5\n",
                  "line 4: non-uniform");
  // Time not starting at zero, or not increasing.
  expect_rejected(header + "10,10,20,5\n40,10,20,5\n", "line 2");
  expect_rejected(header + "0,10,20,5\n0,10,20,5\n", "line 3");
  // The edges of every range, and blanks around a field, still parse.
  const Ephemeris edges = movement_sheet_from_string(
      header + "0,90,180,-11000\n 30 ,-90,\t-180,0\n");
  EXPECT_EQ(edges.sample_count(), 2u);
  // Missing file.
  EXPECT_THROW((void)load_movement_sheet("/nonexistent/sheet.csv"), Error);
}

// Seeded byte mutants of a valid sheet (replace, insert or delete one to
// three bytes): each either parses into finite samples or is rejected with
// a qntn::Error that names a line.
TEST(MovementSheet, ByteMutantsParseFiniteOrNameALine) {
  const std::string valid =
      "time_s,latitude_deg,longitude_deg,altitude_m\n"
      "0.000000,35.960600,-83.920700,500000.000000\n"
      "30.000000,36.500000,-82.100000,500100.500000\n"
      "60.000000,37.000000,-80.300000,500201.000000\n"
      "90.000000,37.500000,-78.500000,500301.500000\n"
      "100.000000,37.700000,-77.900000,500335.000000\n";
  ASSERT_EQ(movement_sheet_from_string(valid).sample_count(), 5u);
  static constexpr char kAlphabet[] = "0123456789.,-+eE \t\nnaifx";
  std::mt19937_64 rng(20'260'401);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int mutant = 0; mutant < 2'000; ++mutant) {
    std::string text = valid;
    const std::size_t edits = 1 + below(3);
    for (std::size_t k = 0; k < edits && !text.empty(); ++k) {
      const std::size_t at = below(text.size());
      // Half the bytes come from the sheet's own alphabet, half are any.
      const char byte = below(2) == 0
                            ? kAlphabet[below(sizeof(kAlphabet) - 1)]
                            : static_cast<char>(below(256));
      switch (below(3)) {
        case 0: text[at] = byte; break;
        case 1: text.insert(at, 1, byte); break;
        default: text.erase(at, 1); break;
      }
    }
    try {
      const Ephemeris eph = movement_sheet_from_string(text);
      ++parsed;
      EXPECT_GE(eph.sample_count(), 2u);
      EXPECT_TRUE(std::isfinite(eph.duration()) && eph.duration() > 0.0);
      for (std::size_t i = 0; i < eph.sample_count(); ++i) {
        const Vec3& p = eph.sample(i);
        EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) &&
                    std::isfinite(p.z))
            << "mutant " << mutant << ":\n" << text;
      }
    } catch (const Error& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << "mutant " << mutant << ": " << e.what() << "\n" << text;
    }
  }
  // Both outcomes occur, so the mutants reach past the header.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
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
