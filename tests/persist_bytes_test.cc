// The persisted bytes of a fixed-seed campaign, pinned. The journal and
// snapshot encoders may get faster, but "same ledger" must keep meaning
// "same bytes" on disk: a change to any encoder, to the frame layout, to
// the snapshot cadence or to when Open rewrites the journal shows up here
// as a digest mismatch.

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_meter.h"
#include "data/census.h"
#include "federated/shard/runner.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

constexpr int64_t kTicks = 4;

struct Config {
  int64_t shards;
  int64_t snapshot_every;
};
constexpr std::array<Config, 4> kConfigs = {
    Config{1, 0}, Config{1, 2}, Config{4, 0}, Config{4, 2}};

// CRC-32 over every state file of the run after each tick, kConfigs order:
// for each state directory (the run's own, or shard0 .. shard3) the
// journal and then the snapshot, each as its name, its length and its
// bytes; an absent file adds its name only. Recorded from the encoders
// that wrote one push_back per byte and sorted the ledger with std::sort.
constexpr std::array<std::array<uint32_t, kTicks>, kConfigs.size()>
    kDigests = {{
        {0x313350a8u, 0xfbb710d3u, 0x2a8e9493u, 0x48e3c73du},
        {0x313350a8u, 0x4af316f6u, 0x883761c9u, 0xdc463089u},
        {0xf9b0f2cbu, 0xcb226eceu, 0xff442f87u, 0xbf2267ffu},
        {0xf9b0f2cbu, 0xeab0700au, 0x13d32b53u, 0xa9875631u},
    }};

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

uint32_t ExtendWithFile(uint32_t crc, const std::string& name,
                        const std::string& path) {
  crc = bytes::Crc32Extend(crc, reinterpret_cast<const uint8_t*>(name.data()),
                           name.size());
  if (!std::filesystem::exists(path)) return crc;
  const std::vector<uint8_t> data = FileBytes(path);
  std::vector<uint8_t> length;
  bytes::PutUint64(data.size(), &length);
  crc = bytes::Crc32Extend(crc, length.data(), length.size());
  return bytes::Crc32Extend(crc, data.data(), data.size());
}

uint32_t StateDigest(const std::string& root, int64_t shards) {
  uint32_t crc = 0;
  for (int64_t s = 0; s < shards; ++s) {
    const std::string dir =
        shards == 1 ? root : root + "/shard" + std::to_string(s);
    const std::string prefix = shards == 1 ? "" : "shard" + std::to_string(s);
    crc = ExtendWithFile(crc, prefix + "/journal.wal", JournalPath(dir));
    crc = ExtendWithFile(crc, prefix + "/snapshot.bin", SnapshotPath(dir));
  }
  return crc;
}

class SnapshotAndJournalBytesTest : public ::testing::Test {
 protected:
  SnapshotAndJournalBytesTest() {
    const FixedPointCodec codec = FixedPointCodec::Integer(8);
    Rng rng(99);
    const Dataset ages =
        CensusAges(400, rng).Clipped(codec.low(), codec.high());
    population_ = MakePopulation(ages.values(), ClientConfig{});
    populations_ = {&population_, &population_};
    codecs_ = {codec, codec};
    // Two metrics under one meter, the second at ε = 1, with caps tight
    // enough that charges are denied: every charge field, granted or not,
    // reaches the journal and the ledger.
    for (int i = 0; i < 2; ++i) {
      CampaignQuery query;
      query.name = i == 0 ? "mean_a" : "mean_b";
      query.value_id = i;
      query.cadence_ticks = i == 0 ? 1 : 2;
      query.query.adaptive.bits = codec.bits();
      query.query.adaptive.epsilon = i == 0 ? 0.0 : 1.0;
      queries_.push_back(query);
    }
    policy_.max_bits_per_value = 2;
    policy_.max_bits_per_client = 3;
  }

  ~SnapshotAndJournalBytesTest() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::string FreshDir(const Config& config) {
    const std::string dir = ::testing::TempDir() + "/state_bytes_" +
                            std::to_string(config.shards) + "_" +
                            std::to_string(config.snapshot_every);
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  // The state digest after each tick of one run.
  std::array<uint32_t, kTicks> Run(const Config& config) {
    const std::string dir = FreshDir(config);
    std::array<uint32_t, kTicks> digests{};
    if (config.shards == 1) {
      DurableCampaignOptions options;
      options.state_dir = dir;
      options.seed = 99;
      options.snapshot_every_ticks = config.snapshot_every;
      options.fsync = false;
      DurableCampaignRunner runner(queries_, policy_, options);
      std::string error;
      EXPECT_TRUE(runner.Open(&error)) << error;
      for (int64_t tick = 0; tick < kTicks; ++tick) {
        runner.RunTick(tick, populations_, codecs_);
        digests[static_cast<size_t>(tick)] = StateDigest(dir, 1);
      }
      return digests;
    }
    ShardedCampaignOptions options;
    options.shards = config.shards;
    options.seed = 99;
    options.state_root = dir;
    options.fsync = false;
    options.snapshot_every_ticks = config.snapshot_every;
    ShardedCampaignRunner runner(queries_, policy_, options);
    runner.Open(populations_, codecs_);
    for (int64_t tick = 0; tick < kTicks; ++tick) {
      MergedTickResult merged;
      std::string error;
      EXPECT_TRUE(runner.RunTick(tick, &merged, &error)) << error;
      digests[static_cast<size_t>(tick)] = StateDigest(dir, config.shards);
    }
    return digests;
  }

  std::vector<Client> population_;
  std::vector<const std::vector<Client>*> populations_;
  std::vector<FixedPointCodec> codecs_;
  std::vector<CampaignQuery> queries_;
  MeterPolicy policy_;
  std::vector<std::string> dirs_;
};

TEST_F(SnapshotAndJournalBytesTest, FixedSeedCampaignMatchesRecordedDigests) {
  std::ostringstream actual;
  bool same = true;
  for (size_t c = 0; c < kConfigs.size(); ++c) {
    const std::array<uint32_t, kTicks> digests = Run(kConfigs[c]);
    actual << "        {";
    for (size_t t = 0; t < digests.size(); ++t) {
      char hex[16];
      std::snprintf(hex, sizeof(hex), "0x%08xu", digests[t]);
      actual << (t == 0 ? "" : ", ") << hex;
      same = same && digests[t] == kDigests[c][t];
    }
    actual << "},\n";
  }
  EXPECT_TRUE(same) << "state file digests differ from the recorded ones; "
                       "this run's:\n"
                    << actual.str();
}

}  // namespace
}  // namespace bitpush
