// Failure injection: mutate correct constructions and confirm the
// verifiers catch every corruption. A verifier that cannot reject broken
// CRNs proves nothing with its green runs.
#include <gtest/gtest.h>

#include "broken_networks.h"
#include "compile/oned.h"
#include "compile/primitives.h"
#include "compile/quilt.h"
#include "fn/examples.h"
#include "verify/simcheck.h"
#include "verify/stable.h"

namespace crnkit {
namespace {

using math::Int;
using test::with_extra_output;
using test::without_reaction;

TEST(FailureInjection, DroppedReactionIsCaughtExhaustively) {
  // Theorem 3.1 CRN for floor(3x/2) minus any single reaction fails on
  // some input <= 8 (every reaction of the chain is load-bearing).
  const crn::Crn good = compile::compile_oned(fn::examples::floor_3x_over_2());
  const auto f = fn::examples::floor_3x_over_2();
  for (std::size_t j = 0; j < good.reactions().size(); ++j) {
    const crn::Crn broken = without_reaction(good, j);
    bool caught = false;
    for (Int x = 0; x <= 8 && !caught; ++x) {
      caught = !verify::check_stable_computation(broken, {x}, f(x)).ok;
    }
    EXPECT_TRUE(caught) << "dropping reaction " << j << " went unnoticed";
  }
}

TEST(FailureInjection, ExtraOutputIsCaughtAsOverproduction) {
  const crn::Crn good = compile::compile_oned(fn::examples::floor_3x_over_2());
  const auto f = fn::examples::floor_3x_over_2();
  for (std::size_t j = 0; j < good.reactions().size(); ++j) {
    const crn::Crn broken = with_extra_output(good, j);
    bool caught = false;
    bool overproduced = false;
    for (Int x = 0; x <= 8 && !caught; ++x) {
      const auto result =
          verify::check_stable_computation(broken, {x}, f(x));
      caught = !result.ok;
      overproduced = result.overproduction.has_value();
    }
    EXPECT_TRUE(caught) << "extra output on reaction " << j;
    EXPECT_TRUE(overproduced) << "overproduction not reported on " << j;
  }
}

TEST(FailureInjection, QuiltCrnCorruptedDeltaCaught) {
  // Lemma 6.1 CRN for fig3a with one extra Y injected into a periodic
  // transition: caught on small inputs.
  const crn::Crn good = compile::compile_quilt_affine(
      fn::examples::fig3a_quilt());
  for (std::size_t j = 0; j < good.reactions().size(); ++j) {
    const crn::Crn broken = with_extra_output(good, j);
    bool caught = false;
    for (Int x = 0; x <= 6 && !caught; ++x) {
      caught = !verify::check_stable_computation(broken, {x}, (3 * x) / 2).ok;
    }
    EXPECT_TRUE(caught) << "reaction " << j;
  }
}

TEST(FailureInjection, RandomizedCheckerCatchesCorruptions) {
  // The stochastic checker must agree with the exhaustive one on broken
  // CRNs (silent runs land on wrong outputs).
  const crn::Crn good = compile::compile_oned(fn::examples::floor_3x_over_2());
  const crn::Crn broken = with_extra_output(good, 1);
  verify::SimCheckOptions options;
  options.trials_per_point = 8;
  const auto result = verify::sim_check_grid(
      broken, fn::examples::floor_3x_over_2(), 6, options);
  EXPECT_FALSE(result.ok);
  EXPECT_GT(result.mismatches, 0);
}

TEST(FailureInjection, MissingLeaderNeverConverges) {
  // Deleting the leader's seed reaction stalls the whole chain: the CRN
  // silently outputs 0 everywhere (wrong except at f(x) = 0).
  const crn::Crn good = compile::compile_oned(fn::examples::floor_3x_over_2());
  const crn::Crn broken = without_reaction(good, 0);  // L -> ... seed
  const auto result = verify::check_stable_computation(broken, {4}, 6);
  EXPECT_FALSE(result.ok);
}

TEST(FailureInjection, WrongExpectedValueIsRejectedNotAccepted) {
  // Sanity of the harness itself: a correct CRN checked against the wrong
  // value must fail, not pass.
  const crn::Crn good = compile::min_crn(2);
  EXPECT_FALSE(verify::check_stable_computation(good, {2, 5}, 3).ok);
  EXPECT_TRUE(verify::check_stable_computation(good, {2, 5}, 2).ok);
}

TEST(FailureInjection, IndicatorWithWrongThresholdCaught) {
  // indicator_crn(j) checked against the (j+1)-threshold function fails.
  const crn::Crn ind = compile::indicator_crn(1);
  // c(a,b,x) with j = 1: a + [x > 1] b. Against j = 2 semantics:
  const fn::DiscreteFunction wrong(
      3,
      [](const fn::Point& x) { return x[0] + (x[2] > 2 ? x[1] : 0); },
      "wrong-threshold");
  bool caught = false;
  for (Int c = 0; c <= 4 && !caught; ++c) {
    caught = !verify::check_stable_computation(ind, {1, 1, c}, wrong({1, 1, c}))
                  .ok;
  }
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace crnkit
