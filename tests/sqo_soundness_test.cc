// Soundness properties of the semantic rewrite pass over randomized
// fleet databases (DESIGN.md §12): for every (fleet size, seed, pruning)
// configuration and every query in a band-derived corpus,
//   1. sqo on and sqo off return byte-identical extensional answers —
//      elimination and narrowing never change the result multiset;
//   2. an empty proof never fires on a query whose extensional answer
//      is nonempty;
//   3. pruned (incomplete) rule bases still satisfy both — the pass must
//      recognize incomplete families and decline rather than lose rows
//      (Appendix C: the Typhoon hazard);
//   4. every spelling of a restriction (quoted numerics, literal-left
//      comparisons, mixed-spelling BETWEEN) answers exactly like the
//      typed spelling, rows and intensional answer alike, and soundly.
// Labeled "sqo".

#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "gtest/gtest.h"
#include "induction/ils.h"
#include "sql/sqo_rewrite.h"
#include "testbed/fleet_generator.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

struct FleetConfig {
  size_t ships_per_type;
  uint64_t seed;
  bool prune;
};

// Groups of spellings that bind to the same typed constants: the typed
// query first, then its respellings. Each selects Name, Type and
// Displacement, so forward facts over the restricted columns are
// checked against every returned row.
std::vector<std::vector<std::string>> FleetSpellings() {
  std::vector<std::vector<std::string>> groups;
  for (const FleetTypeSpec& spec : Table1Specs()) {
    const std::string lo = std::to_string(spec.displacement_lo);
    const std::string hi = std::to_string(spec.displacement_hi);
    const std::string above = std::to_string(spec.displacement_hi + 1);
    const std::string base =
        "SELECT Name, Type, Displacement FROM BATTLESHIP WHERE Type = '" +
        std::string(spec.type) + "' AND ";
    groups.push_back({base + "Displacement >= " + lo,
                      base + "Displacement >= '" + lo + "'",
                      base + lo + " <= Displacement",
                      base + "'" + lo + "' <= Displacement"});
    groups.push_back({base + "Displacement BETWEEN " + lo + " AND " + hi,
                      base + "Displacement BETWEEN '" + lo + "' AND " + hi,
                      base + "Displacement BETWEEN " + lo + " AND '" + hi +
                          "'"});
    // Above the type's band: the empty-proof bait.
    groups.push_back({base + "Displacement > " + above,
                      base + "Displacement > '" + above + "'",
                      base + "'" + above + "' < Displacement"});
  }
  return groups;
}

// The corpus leans on Table 1: for each type band we probe the point
// restriction, an implied range (elimination bait), a straddling range,
// a disjoint range (empty-proof bait), and bare Displacement ranges,
// then every spelling group above.
std::vector<std::string> FleetCorpus() {
  std::vector<std::string> corpus;
  for (const FleetTypeSpec& spec : Table1Specs()) {
    const std::string type = spec.type;
    const std::string lo = std::to_string(spec.displacement_lo);
    const std::string hi = std::to_string(spec.displacement_hi);
    const std::string base =
        "SELECT Name FROM BATTLESHIP WHERE Type = '" + type + "'";
    corpus.push_back(base);
    corpus.push_back(base + " AND Displacement >= " + lo);
    corpus.push_back(base + " AND Displacement BETWEEN " + lo + " AND " +
                     hi);
    corpus.push_back(base + " AND Displacement > " +
                     std::to_string(spec.displacement_hi + 1));
    corpus.push_back(base + " AND Displacement < " +
                     std::to_string(spec.displacement_lo + 1));
    corpus.push_back(
        "SELECT Type, COUNT(*) FROM BATTLESHIP WHERE Displacement BETWEEN " +
        lo + " AND " + hi + " GROUP BY Type");
  }
  corpus.push_back("SELECT Category, COUNT(*) FROM BATTLESHIP "
                   "GROUP BY Category");
  corpus.push_back("SELECT Name FROM BATTLESHIP WHERE Displacement > 50000 "
                   "ORDER BY Name");
  for (const std::vector<std::string>& group : FleetSpellings()) {
    corpus.insert(corpus.end(), group.begin(), group.end());
  }
  return corpus;
}

TEST(SqoSoundnessTest, SpellingsAnswerLikeTheTypedSpelling) {
  const std::vector<FleetConfig> configs = {{10, 7, false}, {40, 21, true}};
  const std::vector<std::vector<std::string>> groups = FleetSpellings();
  for (const FleetConfig& config : configs) {
    SCOPED_TRACE("ships_per_type=" + std::to_string(config.ships_per_type) +
                 " seed=" + std::to_string(config.seed));
    auto fleet = GenerateFleet(config.ships_per_type, config.seed);
    auto catalog = BuildFleetCatalog();
    ASSERT_OK(fleet.status());
    ASSERT_OK(catalog.status());
    auto system_or = IqsSystem::Create(std::move(fleet).value(),
                                       std::move(catalog).value());
    ASSERT_OK(system_or.status());
    std::unique_ptr<IqsSystem> system = std::move(system_or).value();
    InductionConfig induction;
    induction.min_support = 3;
    induction.prune = config.prune;
    ASSERT_OK(system->Induce(induction));

    for (SqoMode mode : {SqoMode::kOff, SqoMode::kOn}) {
      // Uncached, so every spelling derives its own answer.
      QueryOptions options;
      options.sqo = mode;
      options.use_cache = false;
      for (const std::vector<std::string>& group : groups) {
        auto typed = system->Query(group[0], options);
        ASSERT_OK(typed.status());
        testing_util::ExpectSoundAnswer(*system, *typed, group[0]);
        for (size_t i = 1; i < group.size(); ++i) {
          SCOPED_TRACE(group[i]);
          auto respelled = system->Query(group[i], options);
          ASSERT_OK(respelled.status());
          EXPECT_EQ(respelled->extensional.ToTable(),
                    typed->extensional.ToTable());
          EXPECT_EQ(respelled->intensional.ToString(),
                    typed->intensional.ToString());
          testing_util::ExpectSoundAnswer(*system, *respelled, group[i]);
        }
      }
    }
  }
}

TEST(SqoSoundnessTest, RewritesPreserveAnswersAcrossRandomFleets) {
  const std::vector<FleetConfig> configs = {
      {10, 7, false}, {10, 7, true}, {40, 21, false}, {40, 21, true},
  };
  const std::vector<std::string> corpus = FleetCorpus();
  size_t empty_proofs = 0;
  size_t rewrites_fired = 0;
  for (const FleetConfig& config : configs) {
    SCOPED_TRACE("ships_per_type=" + std::to_string(config.ships_per_type) +
                 " seed=" + std::to_string(config.seed) +
                 " prune=" + (config.prune ? std::string("on")
                                           : std::string("off")));
    auto fleet = GenerateFleet(config.ships_per_type, config.seed);
    auto catalog = BuildFleetCatalog();
    ASSERT_OK(fleet.status());
    ASSERT_OK(catalog.status());
    auto system_or = IqsSystem::Create(std::move(fleet).value(),
                                       std::move(catalog).value());
    ASSERT_OK(system_or.status());
    std::unique_ptr<IqsSystem> system = std::move(system_or).value();
    InductionConfig induction;
    induction.min_support = 3;
    induction.prune = config.prune;
    ASSERT_OK(system->Induce(induction));

    for (const std::string& sql : corpus) {
      SCOPED_TRACE(sql);
      system->processor().set_sqo_mode(SqoMode::kOff);
      auto off = system->Query(sql);
      ASSERT_OK(off.status());
      system->processor().cache().Clear();
      system->processor().set_sqo_mode(SqoMode::kOn);
      auto on = system->Query(sql);
      ASSERT_OK(on.status());
      std::string fired;
      for (const RewriteStep& step : on->rewrites) {
        fired += "\n    " + step.ToString();
      }
      rewrites_fired += on->rewrites.size();
      // Property 1: the answer multiset (and its rendering order) is
      // untouched by elimination/narrowing.
      EXPECT_EQ(off->extensional.ToTable(), on->extensional.ToTable())
          << "answer changed under sqo for: " << sql
          << "\n  fired rewrites:" << fired;
      // Property 2: empty proofs only fire when the ground truth is
      // actually empty.
      if (on->stats.sqo_empty_proven) {
        ++empty_proofs;
        EXPECT_EQ(off->stats.rows_returned, 0u)
            << "empty proof fired on a nonempty answer for: " << sql
            << "\n  fired rewrites:" << fired;
        EXPECT_EQ(on->stats.rows_scanned, 0u) << sql;
      }
    }
  }
  // Non-vacuity: the property only means something if the pass actually
  // fired — both elimination/narrowing and at least one empty proof.
  EXPECT_GT(rewrites_fired, 0u);
  EXPECT_GT(empty_proofs, 0u);
}

}  // namespace
}  // namespace iqs
