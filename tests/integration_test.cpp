#include <gtest/gtest.h>

#include <filesystem>

#include "chisimnet/chisimnet.hpp"
#include "chisimnet/elog/extended.hpp"
#include "support.hpp"

/// End-to-end tests over the full stack: population -> ABM -> per-rank logs
/// -> synthesis -> graph analysis, checking the cross-module invariants the
/// paper's workflow depends on.

namespace chisimnet {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pop::PopulationConfig config;
    config.personCount = 4000;
    config.seed = 31415;
    population_ =
        new pop::SyntheticPopulation(pop::SyntheticPopulation::generate(config));
  }
  static void TearDownTestSuite() {
    delete population_;
    population_ = nullptr;
  }

  abm::ModelStats simulate(int ranks, std::uint32_t weeks = 1) {
    abm::ModelConfig config;
    config.logDirectory = dir_;
    config.rankCount = ranks;
    config.weeks = weeks;
    config.scheduleSeed = 161803;
    return abm::runModel(*population_, config);
  }

  static pop::SyntheticPopulation* population_;
  testsupport::ScratchDir scratch_{"chisimnet_integration"};
  const std::filesystem::path& dir_ = scratch_.path();
};

pop::SyntheticPopulation* IntegrationTest::population_ = nullptr;

TEST_F(IntegrationTest, FullPipelineMatchesBruteForce) {
  simulate(3);
  const auto files = elog::listLogFiles(dir_);
  ASSERT_EQ(files.size(), 3u);

  net::SynthesisConfig config;
  config.windowStart = 0;
  config.windowEnd = pop::kHoursPerWeek;
  config.workers = 2;
  net::NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);

  const table::EventTable events =
      elog::loadEvents(files, 0, pop::kHoursPerWeek);
  const auto reference =
      net::bruteForceAdjacency(events, 0, pop::kHoursPerWeek);
  EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets());
  EXPECT_GT(adjacency.edgeCount(), 0u);
}

TEST_F(IntegrationTest, NetworkInvariantToRankCount) {
  simulate(1);
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(config);
  const auto single = synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));

  std::filesystem::remove_all(dir_);
  simulate(5);
  const auto multi = synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));
  EXPECT_EQ(single.toTriplets(), multi.toTriplets());
}

TEST_F(IntegrationTest, HouseholdMembersAreStronglyConnected) {
  simulate(2);
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));

  // Members of the same household share overnight hours every day, so their
  // pairwise weight must be large. Institutionalized persons live at their
  // institution (their household slot is vacant) and hospital stays can
  // erase a few nights, so require > 20 shared hours/week for the checked
  // pairs of co-resident, non-institutionalized members.
  std::map<pop::PlaceId, std::vector<pop::PersonId>> households;
  for (const pop::Person& person : population_->persons()) {
    if (!person.isInstitutionalized()) {
      households[person.home].push_back(person.id);
    }
  }
  int pairsChecked = 0;
  for (const auto& [home, members] : households) {
    if (members.size() < 2) {
      continue;
    }
    EXPECT_GT(adjacency.weight(members[0], members[1]), 20u)
        << "household " << home;
    if (++pairsChecked >= 50) {
      break;
    }
  }
  EXPECT_GE(pairsChecked, 50);
}

TEST_F(IntegrationTest, ClassmatesConnected) {
  simulate(2);
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));

  std::map<pop::PlaceId, std::vector<pop::PersonId>> classrooms;
  for (const pop::Person& person : population_->persons()) {
    if (person.isStudent()) {
      classrooms[person.classroom].push_back(person.id);
    }
  }
  // 5 weekdays x 6 classroom hours = 30 shared hours, minus absences: sick
  // days (4%/child/day) and rare hospital stays. Every pair must share at
  // least one full school day; ~95% of pairs share at least 4 days (24 h).
  int pairsChecked = 0;
  int mostWeekPairs = 0;
  for (const auto& [room, students] : classrooms) {
    if (students.size() < 2) {
      continue;
    }
    const std::uint64_t shared = adjacency.weight(students[0], students[1]);
    EXPECT_GE(shared, 6u) << "classroom " << room;
    mostWeekPairs += shared >= 24 ? 1 : 0;
    if (++pairsChecked >= 20) {
      break;
    }
  }
  EXPECT_GE(pairsChecked, 20);
  EXPECT_GE(mostWeekPairs, 15);
}

TEST_F(IntegrationTest, GraphAnalysesRunOnSynthesizedNetwork) {
  simulate(2);
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(config);
  const graph::Graph network =
      synthesizer.synthesizeGraph(elog::listLogFiles(dir_));

  ASSERT_GT(network.vertexCount(), 0u);
  // Degree distribution is nontrivial.
  const auto degrees = graph::degreeSequence(network);
  const auto distribution = stats::frequencyDistribution(degrees);
  EXPECT_GT(distribution.size(), 5u);

  // Clustering: households and classrooms force many fully clustered
  // vertices (the paper's Fig 4 mass at coefficient 1).
  const auto coefficients = graph::localClusteringCoefficients(network);
  // The spike size trades off against social-visit realism (visitors break
  // perfect household cliques); a few percent of vertices at exactly 1.0 is
  // the qualitative signature Fig 4 shows.
  const std::uint64_t fullyClustered = static_cast<std::uint64_t>(
      std::count_if(coefficients.begin(), coefficients.end(),
                    [](double c) { return c >= 0.999; }));
  EXPECT_GT(fullyClustered, network.vertexCount() / 40);

  // Ego networks extract cleanly.
  const graph::Graph ego = graph::egoNetwork(network, 0, 2);
  EXPECT_GE(ego.vertexCount(), 1u);
  EXPECT_LE(ego.vertexCount(), network.vertexCount());

  // The giant component spans most of the city.
  const graph::Components components = graph::connectedComponents(network);
  EXPECT_GT(components.giantSize(), network.vertexCount() / 2);
}

TEST_F(IntegrationTest, AgeGroupNetworksShowSchoolConstraint) {
  simulate(2);
  const auto files = elog::listLogFiles(dir_);
  const table::EventTable events =
      elog::loadEvents(files, 0, pop::kHoursPerWeek);

  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(config);

  const auto childEvents = net::eventsForAgeGroup(events, *population_,
                                                  pop::AgeGroup::kChild0to14);
  const graph::Graph childNet = synthesizer.synthesizeGraph(childEvents);
  ASSERT_GT(childNet.vertexCount(), 0u);

  // School and class sizes cap children's within-group degree (paper Fig 5:
  // the 0-14 distribution cuts off where schools bound the contact set).
  std::uint64_t maxDegree = 0;
  for (graph::Vertex v = 0; v < childNet.vertexCount(); ++v) {
    maxDegree = std::max(maxDegree, childNet.degree(v));
  }
  EXPECT_LE(maxDegree,
            population_->config().schoolSize + 50);
}

TEST_F(IntegrationTest, PackedLogsProduceIdenticalNetwork) {
  simulate(2);
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(config);
  const auto raw = synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));
  const auto rawBytes = elog::totalFileBytes(elog::listLogFiles(dir_));

  std::filesystem::remove_all(dir_);
  abm::ModelConfig packed;
  packed.logDirectory = dir_;
  packed.rankCount = 2;
  packed.scheduleSeed = 161803;
  packed.logCompression = elog::LogCompression::kPacked;
  abm::runModel(*population_, packed);
  const auto compressed =
      synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));
  const auto packedBytes = elog::totalFileBytes(elog::listLogFiles(dir_));

  EXPECT_EQ(raw.toTriplets(), compressed.toTriplets());
  EXPECT_LT(packedBytes * 2, rawBytes);
}

TEST_F(IntegrationTest, MessagePassingBackendMatchesOnRealLogs) {
  simulate(3);
  const auto files = elog::listLogFiles(dir_);
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  config.workers = 3;
  net::NetworkSynthesizer shared(config);
  const auto reference = shared.synthesizeAdjacency(files);

  config.backend = net::SynthesisBackend::kMessagePassing;
  net::NetworkSynthesizer mp(config);
  const auto distributed = mp.synthesizeAdjacency(files);
  EXPECT_EQ(distributed.toTriplets(), reference.toTriplets());
  EXPECT_EQ(mp.report().edges, reference.edgeCount());
  EXPECT_GT(mp.report().bytesScattered, 0u);
}

TEST_F(IntegrationTest, EveryDiseaseTransmissionIsANetworkEdge) {
  abm::ModelConfig config;
  config.logDirectory = dir_;
  config.rankCount = 2;
  config.scheduleSeed = 161803;
  abm::DiseaseConfig disease;
  disease.beta = 0.01;
  disease.seedCount = 3;
  abm::DiseaseStats epidemic;
  abm::runModel(*population_, config, disease, epidemic);
  ASSERT_GT(epidemic.infections, 0u);

  net::SynthesisConfig synthConfig;
  synthConfig.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(synthConfig);
  const auto adjacency = synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));

  std::uint64_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".clx5") {
      continue;
    }
    elog::ExtendedLogReader reader(entry.path());
    for (const elog::ExtendedEvent& event : reader.readAll()) {
      if (static_cast<abm::SeirState>(event.extras[0]) ==
          abm::SeirState::kExposed) {
        EXPECT_GT(adjacency.weight(event.extras[1], event.base.person), 0u)
            << "transmission " << event.extras[1] << " -> "
            << event.base.person << " has no collocation edge";
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, epidemic.infections);
}

TEST_F(IntegrationTest, SavedNetworkReloadsForAnalysis) {
  simulate(2);
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(elog::listLogFiles(dir_));

  const auto path = dir_ / "network.cadj";
  sparse::saveAdjacency(adjacency, path);
  const graph::Graph fromDisk =
      graph::Graph::fromTriplets(sparse::loadTriplets(path));
  const graph::Graph direct = graph::Graph::fromTriplets(adjacency.toTriplets());
  EXPECT_EQ(fromDisk.vertexCount(), direct.vertexCount());
  EXPECT_EQ(fromDisk.edgeCount(), direct.edgeCount());
  EXPECT_EQ(graph::degreeSequence(fromDisk), graph::degreeSequence(direct));
}

TEST_F(IntegrationTest, TimeSliceSynthesisIsAdditiveAcrossDays) {
  simulate(2);
  const auto files = elog::listLogFiles(dir_);

  net::SynthesisConfig whole;
  whole.windowEnd = 48;
  net::NetworkSynthesizer wholeSynth(whole);
  const auto wholeAdj = wholeSynth.synthesizeAdjacency(files);

  net::SynthesisConfig day1;
  day1.windowEnd = 24;
  net::SynthesisConfig day2;
  day2.windowStart = 24;
  day2.windowEnd = 48;
  net::NetworkSynthesizer synth1(day1);
  net::NetworkSynthesizer synth2(day2);
  auto sum = synth1.synthesizeAdjacency(files);
  sum.merge(synth2.synthesizeAdjacency(files));

  EXPECT_EQ(wholeAdj.toTriplets(), sum.toTriplets());
}

}  // namespace
}  // namespace chisimnet
