// The persisted bytes of a fixed-seed campaign, pinned. The journal and
// snapshot encoders may get faster, but "same ledger" must keep meaning
// "same bytes" on disk: a change to any encoder, to the frame layout, to
// the snapshot cadence or to when Open rewrites the journal shows up here
// as a digest mismatch. The frames its shards ship to the merge tier are
// pinned the same way.

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_meter.h"
#include "data/census.h"
#include "federated/shard/merge.h"
#include "federated/shard/runner.h"
#include "federated/shard/shard.h"
#include "obs/trace.h"
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

// Digests of the state files after each tick, kConfigs order: one over
// every journal.wal of the run and one over every snapshot.bin. Each
// digest walks the state directories in order (the run's own, or shard0
// .. shard3) and adds each file as its name, its length and its bytes; an
// absent file adds its name only. Journal and snapshot are pinned apart
// because their formats move apart: the snapshot has its own format byte
// (kSnapshotFormatVersion), and a change to it must leave every journal
// digest as it is.
//
// The digest is 64-bit FNV-1a, not CRC-32: every journal frame and the
// snapshot file end in a CRC-32 of the bytes before them, and a CRC-32
// run over a message followed by its own CRC lands on a constant, so a
// CRC-32 digest of these files would pin their frame lengths and nothing
// else.
struct Digests {
  uint64_t journal;
  uint64_t snapshot;

  friend bool operator==(const Digests&, const Digests&) = default;
};
// {journal, snapshot} after ticks 0 .. 3.
constexpr std::array<std::array<Digests, kTicks>, kConfigs.size()> kDigests =
    {{
        // shards, snapshot_every = {1, 0}
        {{
            {0xf8195a0babe4c846u, 0x019a150a937cf65du},
            {0xfdf03e2b7bcd2646u, 0x019a150a937cf65du},
            {0xb513b11cb0feba3cu, 0x019a150a937cf65du},
            {0xabcfc36d5462a74du, 0x019a150a937cf65du},
        }},
        // shards, snapshot_every = {1, 2}
        {{
            {0xf8195a0babe4c846u, 0x019a150a937cf65du},
            {0x2fb87fa2978eadcbu, 0x6f8eb17d67c7cb5fu},
            {0x663ff0eb0d6a2c0du, 0x6f8eb17d67c7cb5fu},
            {0x2fb87fa2978eadcbu, 0x82cc80b6251fb162u},
        }},
        // shards, snapshot_every = {4, 0}
        {{
            {0x7381bc910a25231fu, 0xbd4f8ca876337c25u},
            {0xff370aadb12945ceu, 0xbd4f8ca876337c25u},
            {0x96263e757feb6590u, 0xbd4f8ca876337c25u},
            {0x902343fcb1dec100u, 0xbd4f8ca876337c25u},
        }},
        // shards, snapshot_every = {4, 2}
        {{
            {0x7381bc910a25231fu, 0xbd4f8ca876337c25u},
            {0x835db89458a5a5bdu, 0xbddf0fdcb13beda0u},
            {0x0daffef4653cd46bu, 0xbddf0fdcb13beda0u},
            {0x835db89458a5a5bdu, 0xebbe797948d04f1cu},
        }},
    }};

uint64_t Fnv1a(uint64_t digest, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    digest = (digest ^ data[i]) * 0x100000001b3ULL;
  }
  return digest;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

uint64_t ExtendWithFile(uint64_t digest, const std::string& name,
                        const std::string& path) {
  digest = Fnv1a(digest, reinterpret_cast<const uint8_t*>(name.data()),
                 name.size());
  if (!std::filesystem::exists(path)) return digest;
  const std::vector<uint8_t> data = FileBytes(path);
  std::vector<uint8_t> length;
  bytes::PutUint64(data.size(), &length);
  digest = Fnv1a(digest, length.data(), length.size());
  return Fnv1a(digest, data.data(), data.size());
}

Digests StateDigests(const std::string& root, int64_t shards) {
  constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  Digests digests{kFnvOffset, kFnvOffset};
  for (int64_t s = 0; s < shards; ++s) {
    const std::string dir =
        shards == 1 ? root : root + "/shard" + std::to_string(s);
    const std::string prefix = shards == 1 ? "" : "shard" + std::to_string(s);
    digests.journal = ExtendWithFile(digests.journal, prefix + "/journal.wal",
                                     JournalPath(dir));
    digests.snapshot = ExtendWithFile(
        digests.snapshot, prefix + "/snapshot.bin", SnapshotPath(dir));
  }
  return digests;
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

  std::string FreshDir(const Config& config, const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "/state_bytes_" + tag +
                            "_" + std::to_string(config.shards) + "_" +
                            std::to_string(config.snapshot_every);
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  // Opens the state in `dir`, fresh or recovering, and runs ticks
  // [0, ticks), calling after_tick(tick) after each.
  template <typename AfterTick>
  void RunTicks(const Config& config, const std::string& dir, int64_t ticks,
                const AfterTick& after_tick) {
    if (config.shards == 1) {
      DurableCampaignOptions options;
      options.state_dir = dir;
      options.seed = 99;
      options.snapshot_every_ticks = config.snapshot_every;
      options.fsync = false;
      DurableCampaignRunner runner(queries_, policy_, options);
      std::string error;
      ASSERT_TRUE(runner.Open(populations_, &error)) << error;
      for (int64_t tick = 0; tick < ticks; ++tick) {
        runner.RunTick(tick, codecs_);
        after_tick(tick);
      }
      return;
    }
    ShardedCampaignOptions options;
    options.shards = config.shards;
    options.seed = 99;
    options.state_root = dir;
    options.fsync = false;
    options.snapshot_every_ticks = config.snapshot_every;
    ShardedCampaignRunner runner(queries_, policy_, options);
    runner.Open(populations_, codecs_);
    for (int64_t tick = 0; tick < ticks; ++tick) {
      MergedTickResult merged;
      std::string error;
      ASSERT_TRUE(runner.RunTick(tick, &merged, &error)) << error;
      after_tick(tick);
    }
  }

  // The state digests after each tick of one run.
  std::array<Digests, kTicks> Run(const Config& config) {
    const std::string dir = FreshDir(config, "pinned");
    std::array<Digests, kTicks> digests{};
    RunTicks(config, dir, kTicks, [&](int64_t tick) {
      digests[static_cast<size_t>(tick)] = StateDigests(dir, config.shards);
    });
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
    const std::array<Digests, kTicks> digests = Run(kConfigs[c]);
    actual << "        {{";
    for (size_t t = 0; t < digests.size(); ++t) {
      char hex[64];
      std::snprintf(hex, sizeof(hex), "{0x%016llxu, 0x%016llxu}",
                    static_cast<unsigned long long>(digests[t].journal),
                    static_cast<unsigned long long>(digests[t].snapshot));
      actual << (t == 0 ? "" : ", ") << hex;
      same = same && digests[t] == kDigests[c][t];
    }
    actual << "}},\n";
  }
  EXPECT_TRUE(same) << "state file digests differ from the recorded ones; "
                       "this run's {journal, snapshot}:\n"
                    << actual.str();
}

// Every state file of the run under `root`: its name, then its length and
// bytes; an absent file is its name alone.
std::string StateFiles(const std::string& root, int64_t shards) {
  std::string files;
  for (int64_t s = 0; s < shards; ++s) {
    const std::string dir =
        shards == 1 ? root : root + "/shard" + std::to_string(s);
    for (const std::string& path : {JournalPath(dir), SnapshotPath(dir)}) {
      files += path + '\n';
      if (!std::filesystem::exists(path)) continue;
      const std::vector<uint8_t> data = FileBytes(path);
      files += std::to_string(data.size()) + '\n';
      files.append(data.begin(), data.end());
    }
  }
  return files;
}

TEST_F(SnapshotAndJournalBytesTest, RestoredTicksLeaveTheStateFilesAsTheyWere) {
  // A reopened campaign re-runs (one coordinator) or re-delivers (four
  // shards) the ticks it restored before it runs on. The restored prefix is
  // read-only: after each of those ticks, and its snapshot when one comes
  // due, every journal.wal and snapshot.bin is byte-identical to what the
  // first run left.
  constexpr int64_t kRestored = kTicks - 1;
  for (const Config& config :
       {Config{1, 0}, Config{1, 1}, Config{1, 2}, Config{4, 0}, Config{4, 1},
        Config{4, 2}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << config.shards
                                    << " snapshot_every="
                                    << config.snapshot_every);
    const std::string dir = FreshDir(config, "restored");
    RunTicks(config, dir, kRestored, [](int64_t) {});
    const std::string before = StateFiles(dir, config.shards);
    RunTicks(config, dir, kRestored, [&](int64_t tick) {
      EXPECT_EQ(StateFiles(dir, config.shards), before) << "tick " << tick;
    });
  }
}

// The shard -> merge frames of the same campaign on four in-memory
// shards, pinned like the state files: a change to the frame codec, or to
// the tally codec it shares with the journal and the snapshot, shows up
// here as a digest mismatch. One digest per tick, over the four shards'
// encoded frames in shard order, each added as its length and its bytes.
class ShardFrameBytesTest : public SnapshotAndJournalBytesTest {};

// Frame digests after ticks 0 .. 3.
constexpr std::array<uint64_t, kTicks> kFrameDigests = {
    0x53e8b4633975f4f8u, 0xc9807407b9d263aau, 0xd38a5e3237efcfd9u,
    0x49df1148e553ffa5u};

TEST_F(ShardFrameBytesTest, FixedSeedTicksMatchRecordedDigests) {
  constexpr int64_t kShards = 4;
  obs::SetTracingEnabled(false);  // the frame's trace context stays zero
  const std::vector<std::vector<Client>> partitions =
      PartitionClients(population_, kShards);
  std::vector<std::unique_ptr<ShardCoordinator>> shards;
  for (int64_t s = 0; s < kShards; ++s) {
    ShardCoordinatorOptions options;
    options.shard_index = s;
    options.seed = ShardSeed(99, s);
    shards.push_back(
        std::make_unique<ShardCoordinator>(queries_, policy_, options));
    const std::vector<Client>& partition = partitions[static_cast<size_t>(s)];
    shards.back()->Bind({partition, partition}, codecs_);
  }
  std::ostringstream actual;
  bool same = true;
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::unique_ptr<ShardCoordinator>& shard : shards) {
      ShardTickFrame frame;
      std::string error;
      ASSERT_TRUE(shard->CollectTick(tick, &frame, &error)) << error;
      std::vector<uint8_t> encoded;
      EncodeShardTickFrame(frame, &encoded);
      std::vector<uint8_t> length;
      bytes::PutUint64(encoded.size(), &length);
      digest = Fnv1a(digest, length.data(), length.size());
      digest = Fnv1a(digest, encoded.data(), encoded.size());
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxu",
                  static_cast<unsigned long long>(digest));
    actual << (tick == 0 ? "" : ", ") << hex;
    same = same && digest == kFrameDigests[static_cast<size_t>(tick)];
  }
  EXPECT_TRUE(same) << "shard frame digests differ from the recorded ones; "
                       "this run's:\n"
                    << actual.str();
}

}  // namespace
}  // namespace bitpush
