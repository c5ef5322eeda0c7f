#include "quantum/channels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "quantum/state.hpp"

namespace qntn::quantum {
namespace {

TEST(Channels, AmplitudeDampingKrausMatchPaperEq3) {
  const double eta = 0.49;
  const KrausChannel ch = amplitude_damping(eta);
  const auto& ops = ch.kraus_operators();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_NEAR(ops[0](0, 0).real(), 1.0, 1e-15);
  EXPECT_NEAR(ops[0](1, 1).real(), std::sqrt(eta), 1e-15);
  EXPECT_NEAR(ops[1](0, 1).real(), std::sqrt(1.0 - eta), 1e-15);
  EXPECT_NEAR(ops[1](1, 0).real(), 0.0, 1e-15);
}

TEST(Channels, AmplitudeDampingIdentityAtFullTransmissivity) {
  const Matrix rho = werner_state(0.8);
  const Matrix out = amplitude_damping(1.0).apply_to_qubit(rho, 1);
  EXPECT_LT(out.max_abs_diff(rho), 1e-15);
}

TEST(Channels, AmplitudeDampingCollapsesToGroundAtZero) {
  const Matrix rho = pure_density(basis_state(1, 1));  // |1><1|
  const Matrix out = amplitude_damping(0.0).apply(rho);
  EXPECT_NEAR(out(0, 0).real(), 1.0, 1e-15);
  EXPECT_NEAR(out(1, 1).real(), 0.0, 1e-15);
}

TEST(Channels, AmplitudeDampingExcitedPopulationScalesWithEta) {
  const Matrix rho = pure_density(basis_state(1, 1));
  for (double eta : {0.2, 0.5, 0.9}) {
    const Matrix out = amplitude_damping(eta).apply(rho);
    EXPECT_NEAR(out(1, 1).real(), eta, 1e-15);
    EXPECT_NEAR(out(0, 0).real(), 1.0 - eta, 1e-15);
  }
}

TEST(Channels, AmplitudeDampingSemigroupComposition) {
  // AD(a) then AD(b) equals AD(a*b) — the property that lets the routing
  // layer use the transmissivity product for multi-hop fidelity.
  const double a = 0.8, b = 0.7;
  const Matrix rho = werner_state(0.9);
  const Matrix sequential =
      amplitude_damping(b).apply_to_qubit(
          amplitude_damping(a).apply_to_qubit(rho, 1), 1);
  const Matrix direct = amplitude_damping(a * b).apply_to_qubit(rho, 1);
  EXPECT_LT(sequential.max_abs_diff(direct), 1e-12);
}

TEST(Channels, RejectsOutOfRangeParameters) {
  EXPECT_THROW((void)amplitude_damping(-0.1), PreconditionError);
  EXPECT_THROW((void)amplitude_damping(1.1), PreconditionError);
  EXPECT_THROW((void)depolarizing(2.0), PreconditionError);
  EXPECT_THROW((void)dephasing(-1.0), PreconditionError);
  EXPECT_THROW((void)bit_flip(1.5), PreconditionError);
}

/// CPTP property over a channel/parameter grid. The factory is wrapped with
/// its name so gtest prints the parameter (and hence the discovered test
/// name) the same in every process, rather than a load-address pointer.
struct ChannelFactory {
  const char* name;
  KrausChannel (*make)(double);
};

void PrintTo(const ChannelFactory& factory, std::ostream* os) {
  *os << factory.name;
}

class CptpSweep
    : public ::testing::TestWithParam<std::tuple<ChannelFactory, double>> {};

TEST_P(CptpSweep, TracePreservingAndPositive) {
  const auto [factory, p] = GetParam();
  const KrausChannel ch = factory.make(p);
  EXPECT_TRUE(ch.is_trace_preserving(1e-12));
  // Applying to valid states yields valid states.
  for (const Matrix& rho :
       {pure_density(basis_state(1, 0)), pure_density(basis_state(1, 1)),
        maximally_mixed(1)}) {
    const Matrix out = ch.apply(rho);
    EXPECT_TRUE(is_density_matrix(out, 1e-9)) << ch.name() << " p=" << p;
  }
  // And on entangled two-qubit states via apply_to_qubit.
  const Matrix bell = pure_density(bell_state(BellState::PhiPlus));
  for (std::size_t q : {0u, 1u}) {
    EXPECT_TRUE(is_density_matrix(ch.apply_to_qubit(bell, q), 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CptpSweep,
    ::testing::Combine(::testing::Values(
                           ChannelFactory{"amplitude_damping",
                                          &amplitude_damping},
                           ChannelFactory{"depolarizing", &depolarizing},
                           ChannelFactory{"dephasing", &dephasing},
                           ChannelFactory{"bit_flip", &bit_flip}),
                       ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)));

TEST(Channels, DepolarizingFullStrengthGivesMaximallyMixed) {
  const Matrix rho = pure_density(basis_state(1, 0));
  const Matrix out = depolarizing(0.75).apply(rho);
  // p = 3/4 is the completely depolarizing point of this parameterisation.
  EXPECT_LT(out.max_abs_diff(maximally_mixed(1)), 1e-12);
}

TEST(Channels, DephasingKillsCoherencesKeepsPopulations) {
  Matrix rho{{0.5, Complex(0.5, 0.0)}, {Complex(0.5, 0.0), 0.5}};  // |+><+|
  const Matrix out = dephasing(1.0).apply(rho);
  EXPECT_NEAR(out(0, 0).real(), 0.5, 1e-15);
  EXPECT_NEAR(std::abs(out(0, 1)), 0.5, 1e-15);  // p=1 flips sign, |.|=0.5
  const Matrix half = dephasing(0.5).apply(rho);
  EXPECT_NEAR(std::abs(half(0, 1)), 0.0, 1e-15);  // fully dephased at p=1/2
}

TEST(Channels, BitFlipSwapsPopulations) {
  const Matrix rho = pure_density(basis_state(1, 0));
  const Matrix out = bit_flip(1.0).apply(rho);
  EXPECT_NEAR(out(1, 1).real(), 1.0, 1e-15);
}

TEST(Channels, ApplyToQubitTargetsCorrectQubit) {
  // Damp qubit 0 (MSB) of |10><10|: population must move to |00>.
  const Matrix rho = pure_density(basis_state(2, 2));  // |10>
  const Matrix out = amplitude_damping(0.0).apply_to_qubit(rho, 0);
  EXPECT_NEAR(out(0, 0).real(), 1.0, 1e-15);
  // Damping qubit 1 of |10> does nothing (it is already |0>).
  const Matrix same = amplitude_damping(0.0).apply_to_qubit(rho, 1);
  EXPECT_LT(same.max_abs_diff(rho), 1e-15);
}

TEST(Channels, CompositionOperator) {
  const KrausChannel composed =
      amplitude_damping(0.8).then(amplitude_damping(0.5));
  EXPECT_TRUE(composed.is_trace_preserving(1e-12));
  const Matrix rho = werner_state(1.0);
  const Matrix via_then = composed.apply_to_qubit(rho, 1);
  const Matrix direct = amplitude_damping(0.4).apply_to_qubit(rho, 1);
  EXPECT_LT(via_then.max_abs_diff(direct), 1e-12);
}

TEST(Channels, TransmitBellHalfMatchesPaperEq4) {
  const double eta = 0.7;
  const Matrix rho = transmit_bell_half(eta);
  EXPECT_TRUE(is_density_matrix(rho));
  // Analytic form: 1/2 (|00>+sqrt(eta)|11>)(...)^dag + (1-eta)/2 |10><10|.
  EXPECT_NEAR(rho(0, 0).real(), 0.5, 1e-15);
  EXPECT_NEAR(rho(0, 3).real(), 0.5 * std::sqrt(eta), 1e-15);
  EXPECT_NEAR(rho(3, 3).real(), 0.5 * eta, 1e-15);
  EXPECT_NEAR(rho(2, 2).real(), 0.5 * (1.0 - eta), 1e-15);
  EXPECT_NEAR(rho(1, 1).real(), 0.0, 1e-15);
}

TEST(Channels, RejectsMismatchedDimensions) {
  const KrausChannel ch = amplitude_damping(0.5);
  EXPECT_THROW((void)ch.apply(Matrix::identity(4)), PreconditionError);
  EXPECT_THROW((void)ch.apply_to_qubit(maximally_mixed(2), 2), PreconditionError);
  EXPECT_THROW((void)ch.then(KrausChannel("id4", {Matrix::identity(4)})),
               PreconditionError);
}

}  // namespace
}  // namespace qntn::quantum
