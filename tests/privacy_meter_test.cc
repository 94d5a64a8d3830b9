#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_meter.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

// Captures every journal callback.
class RecordingJournal : public PrivacyMeter::Journal {
 public:
  struct Charge {
    int64_t client_id = 0;
    int64_t value_id = 0;
    double epsilon = 0.0;
    bool granted = false;
  };

  void OnCharge(int64_t client_id, int64_t value_id, double epsilon,
                bool granted) override {
    charges.push_back(Charge{client_id, value_id, epsilon, granted});
  }

  std::vector<Charge> charges;
};

TEST(PrivacyMeterTest, DefaultPolicyAllowsOneBitPerValue) {
  PrivacyMeter meter{MeterPolicy{}};
  EXPECT_TRUE(meter.TryChargeBit(1, 100, 0.0));
  // Second bit about the same value: denied (the paper's worst-case
  // guarantee).
  EXPECT_FALSE(meter.TryChargeBit(1, 100, 0.0));
  // A different value of the same client is fine.
  EXPECT_TRUE(meter.TryChargeBit(1, 101, 0.0));
  // Another client's same value id is independent.
  EXPECT_TRUE(meter.TryChargeBit(2, 100, 0.0));
  EXPECT_EQ(meter.total_bits(), 3);
  EXPECT_EQ(meter.denied_charges(), 1);
}

TEST(PrivacyMeterTest, PerValueCapAboveOne) {
  MeterPolicy policy;
  policy.max_bits_per_value = 3;
  PrivacyMeter meter(policy);
  EXPECT_TRUE(meter.TryChargeBit(1, 5, 0.0));
  EXPECT_TRUE(meter.TryChargeBit(1, 5, 0.0));
  EXPECT_TRUE(meter.TryChargeBit(1, 5, 0.0));
  EXPECT_FALSE(meter.TryChargeBit(1, 5, 0.0));
  EXPECT_EQ(meter.ValueBits(1, 5), 3);
}

TEST(PrivacyMeterTest, PerClientBitCap) {
  MeterPolicy policy;
  policy.max_bits_per_value = 10;
  policy.max_bits_per_client = 2;
  PrivacyMeter meter(policy);
  EXPECT_TRUE(meter.TryChargeBit(7, 1, 0.0));
  EXPECT_TRUE(meter.TryChargeBit(7, 2, 0.0));
  EXPECT_FALSE(meter.TryChargeBit(7, 3, 0.0));
  EXPECT_EQ(meter.ClientBits(7), 2);
  // Other clients unaffected.
  EXPECT_TRUE(meter.TryChargeBit(8, 1, 0.0));
}

TEST(PrivacyMeterTest, EpsilonBudgetComposesAcrossCharges) {
  MeterPolicy policy;
  policy.max_bits_per_value = 10;
  policy.max_bits_per_client = 10;
  policy.max_epsilon_per_client = 2.5;
  PrivacyMeter meter(policy);
  EXPECT_TRUE(meter.TryChargeBit(1, 1, 1.0));
  EXPECT_TRUE(meter.TryChargeBit(1, 2, 1.0));
  // Third unit charge would push to 3.0 > 2.5.
  EXPECT_FALSE(meter.TryChargeBit(1, 3, 1.0));
  // A smaller charge still fits.
  EXPECT_TRUE(meter.TryChargeBit(1, 3, 0.5));
  EXPECT_DOUBLE_EQ(meter.ClientEpsilon(1), 2.5);
}

TEST(PrivacyMeterTest, DeniedChargeLeavesStateUntouched) {
  PrivacyMeter meter{MeterPolicy{}};
  EXPECT_TRUE(meter.TryChargeBit(1, 1, 0.3));
  const int64_t bits_before = meter.total_bits();
  const double eps_before = meter.ClientEpsilon(1);
  EXPECT_FALSE(meter.TryChargeBit(1, 1, 0.3));
  EXPECT_EQ(meter.total_bits(), bits_before);
  EXPECT_DOUBLE_EQ(meter.ClientEpsilon(1), eps_before);
}

TEST(PrivacyMeterTest, UnknownClientsReadAsZero) {
  const PrivacyMeter meter{MeterPolicy{}};
  EXPECT_EQ(meter.ClientBits(99), 0);
  EXPECT_DOUBLE_EQ(meter.ClientEpsilon(99), 0.0);
  EXPECT_EQ(meter.ValueBits(99, 1), 0);
}

TEST(PrivacyMeterDeathTest, InvalidPolicyAborts) {
  MeterPolicy bad;
  bad.max_bits_per_value = 0;
  EXPECT_DEATH(PrivacyMeter{bad}, "BITPUSH_CHECK failed");
}

// Regression: an invalid epsilon used to slip past the non-negativity check
// when it was +infinity (corrupting the composed budget forever) and abort
// the coordinator when it was negative. Both are now denied like any other
// over-budget charge, leaving the ledger untouched.
TEST(PrivacyMeterTest, InvalidEpsilonDeniedWithoutSideEffects) {
  MeterPolicy policy;
  policy.max_bits_per_value = 10;
  policy.max_bits_per_client = 10;
  policy.max_epsilon_per_client = 2.5;
  PrivacyMeter meter(policy);
  EXPECT_TRUE(meter.TryChargeBit(1, 1, 1.0));

  EXPECT_FALSE(meter.TryChargeBit(1, 2, -0.1));
  EXPECT_FALSE(meter.TryChargeBit(1, 2, std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(meter.TryChargeBit(1, 2, std::numeric_limits<double>::quiet_NaN()));

  EXPECT_EQ(meter.total_bits(), 1);
  EXPECT_EQ(meter.denied_charges(), 3);
  EXPECT_DOUBLE_EQ(meter.ClientEpsilon(1), 1.0);
  // The budget still composes normally afterwards.
  EXPECT_TRUE(meter.TryChargeBit(1, 2, 1.5));
  EXPECT_FALSE(meter.TryChargeBit(1, 3, 0.5));
}

// Regression: invalid-epsilon denials used to return before the journal
// hooks, so they were never journaled nor replayed — a restored ledger's
// denied-charge count diverged from an uninterrupted run.
TEST(PrivacyMeterTest, InvalidEpsilonDenialsFlowThroughTheJournal) {
  PrivacyMeter meter{MeterPolicy{}};
  RecordingJournal journal;
  meter.set_journal(&journal);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(meter.TryChargeBit(1, 2, nan));
  ASSERT_EQ(journal.charges.size(), 1u);
  EXPECT_EQ(journal.charges[0].client_id, 1);
  EXPECT_EQ(journal.charges[0].value_id, 2);
  EXPECT_TRUE(std::isnan(journal.charges[0].epsilon));
  EXPECT_FALSE(journal.charges[0].granted);
  EXPECT_EQ(meter.denied_charges(), 1);
}

TEST(PrivacyMeterTest, EncodeDecodeRoundTripsLedger) {
  MeterPolicy policy;
  policy.max_bits_per_value = 4;
  policy.max_bits_per_client = 6;
  policy.max_epsilon_per_client = 10.0;
  PrivacyMeter meter(policy);
  EXPECT_TRUE(meter.TryChargeBit(3, 7, 0.5));
  EXPECT_TRUE(meter.TryChargeBit(3, 8, 0.25));
  EXPECT_TRUE(meter.TryChargeBit(9, 7, 1.0));
  EXPECT_FALSE(meter.TryChargeBit(9, 7, 100.0));  // denied, ledger untouched

  std::vector<uint8_t> blob;
  meter.EncodeTo(&blob);
  PrivacyMeter decoded{MeterPolicy{}};
  size_t offset = 0;
  ASSERT_TRUE(PrivacyMeter::DecodeFrom(blob, &offset, &decoded));
  EXPECT_EQ(offset, blob.size());
  EXPECT_TRUE(decoded.policy() == policy);
  EXPECT_EQ(decoded.total_bits(), 3);
  EXPECT_EQ(decoded.denied_charges(), 1);
  EXPECT_EQ(decoded.ClientBits(3), 2);
  EXPECT_EQ(decoded.ValueBits(9, 7), 1);
  EXPECT_DOUBLE_EQ(decoded.ClientEpsilon(9), 1.0);

  // Canonical form: the restored meter re-encodes to identical bytes.
  std::vector<uint8_t> blob2;
  decoded.EncodeTo(&blob2);
  EXPECT_EQ(blob, blob2);

  // Corruption is rejected: ledger bit sums must reconcile with totals.
  std::vector<uint8_t> corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x40;
  PrivacyMeter sink{MeterPolicy{}};
  offset = 0;
  PrivacyMeter::DecodeFrom(corrupt, &offset, &sink);  // must not crash
}

// A meter and a plain model of its ledger, charged side by side, so that
// EncodeTo can be compared with an encoding built the obvious way.
class ModelledMeter {
 public:
  explicit ModelledMeter(const MeterPolicy& policy)
      : policy_(policy), meter_(policy) {}

  void Charge(int64_t client_id, int64_t value_id, double epsilon) {
    if (!meter_.TryChargeBit(client_id, value_id, epsilon)) {
      ++denied_;
      return;
    }
    Client& client = clients_[client_id];
    ++client.bits;
    client.epsilon += epsilon;
    ++client.values[value_id];
  }

  // The canonical encoding: clients put in id order with std::sort, each
  // client's values in id order, every field written with bytes::Put*.
  std::vector<uint8_t> Reference() const {
    std::vector<std::pair<int64_t, Client>> clients(clients_.begin(),
                                                    clients_.end());
    std::sort(clients.begin(), clients.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    int64_t total_bits = 0;
    for (const auto& [id, client] : clients) total_bits += client.bits;
    std::vector<uint8_t> blob;
    bytes::PutInt64(policy_.max_bits_per_value, &blob);
    bytes::PutInt64(policy_.max_bits_per_client, &blob);
    bytes::PutDouble(policy_.max_epsilon_per_client, &blob);
    bytes::PutInt64(total_bits, &blob);
    bytes::PutInt64(denied_, &blob);
    bytes::PutUint32(static_cast<uint32_t>(clients.size()), &blob);
    for (const auto& [id, client] : clients) {
      bytes::PutInt64(id, &blob);
      bytes::PutInt64(client.bits, &blob);
      bytes::PutDouble(client.epsilon, &blob);
      bytes::PutUint32(static_cast<uint32_t>(client.values.size()), &blob);
      for (const auto& [value_id, bits] : client.values) {
        bytes::PutInt64(value_id, &blob);
        bytes::PutInt64(bits, &blob);
      }
    }
    return blob;
  }

  std::vector<uint8_t> Encoded() const {
    std::vector<uint8_t> blob;
    meter_.EncodeTo(&blob);
    return blob;
  }

  int64_t denied() const { return denied_; }

 private:
  struct Client {
    int64_t bits = 0;
    double epsilon = 0.0;
    std::map<int64_t, int64_t> values;
  };

  MeterPolicy policy_;
  PrivacyMeter meter_;
  std::map<int64_t, Client> clients_;
  int64_t denied_ = 0;
};

MeterPolicy RoomyPolicy() {
  MeterPolicy policy;
  policy.max_bits_per_value = 3;
  policy.max_bits_per_client = 5;
  policy.max_epsilon_per_client = 64.0;
  return policy;
}

TEST(PrivacyMeterTest, EmptyLedgerEncodesItsHeaderAlone) {
  ModelledMeter empty(RoomyPolicy());
  EXPECT_EQ(empty.Encoded(), empty.Reference());
  EXPECT_EQ(empty.Encoded().size(), 8u * 5 + 4);
  // Denials add no client.
  ModelledMeter denied(RoomyPolicy());
  denied.Charge(4, 1, -1.0);
  denied.Charge(5, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(denied.Encoded(), denied.Reference());
  EXPECT_EQ(denied.Encoded().size(), 8u * 5 + 4);
}

TEST(PrivacyMeterTest, RadixOrderedEncodingMatchesSortedReference) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> ids = {kMin, kMin + 1, -1234567890123, -256, -1, 0,
                              1,    255,      256,            kMax - 1, kMax};
  // Ids that share every byte but the lowest (one radix pass), and ids
  // that share every byte but the highest.
  for (int64_t k = 0; k < 200; ++k) ids.push_back(0x5A5A5A5A5A5A5A00 + k);
  for (uint64_t k = 0; k < 16; ++k) {
    ids.push_back(static_cast<int64_t>((k << 60) | 0x0123456789ABCDEFULL));
  }
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    ids.push_back(static_cast<int64_t>(rng.NextUint64()));
  }
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextBelow(i)]);
  }

  ModelledMeter meter(RoomyPolicy());
  for (size_t i = 0; i < ids.size(); ++i) {
    const double epsilon = 0.25 * static_cast<double>(i % 5);
    meter.Charge(ids[i], 7, epsilon);
    // Every third client reports further values, in an order unlike their
    // ids, one of them twice.
    if (i % 3 == 0) {
      meter.Charge(ids[i], 9, 0.5);
      meter.Charge(ids[i], -4, 0.0);
      meter.Charge(ids[i], 9, 0.25);
    }
    // Denials: past the ε cap once the client has spent any ε, and past
    // the per-value and per-client bit caps.
    if (i % 7 == 0) meter.Charge(ids[i], 7, 63.9);
    if (i % 11 == 0) {
      for (int k = 0; k < 5; ++k) meter.Charge(ids[i], 8, 0.0);
    }
  }
  ASSERT_GT(meter.denied(), 0);
  const std::vector<uint8_t> encoded = meter.Encoded();
  EXPECT_EQ(encoded, meter.Reference());

  // A decoded ledger re-encodes to the same bytes.
  PrivacyMeter decoded{MeterPolicy{}};
  size_t offset = 0;
  ASSERT_TRUE(PrivacyMeter::DecodeFrom(encoded, &offset, &decoded));
  std::vector<uint8_t> again;
  decoded.EncodeTo(&again);
  EXPECT_EQ(again, encoded);
}

// One client entry of an encoded meter: its id, bit total and (value id,
// bits) entries, as listed.
struct EncodedClient {
  int64_t id = 0;
  int64_t bits = 0;
  std::vector<std::pair<int64_t, int64_t>> values;
};

// A meter blob under permissive caps with the given totals and entries,
// written field by field so that it can hold what EncodeTo never writes.
std::vector<uint8_t> MeterBlob(int64_t total_bits,
                               const std::vector<EncodedClient>& clients) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<uint8_t> blob;
  bytes::PutInt64(kMax, &blob);  // max bits per value
  bytes::PutInt64(kMax, &blob);  // max bits per client
  bytes::PutDouble(1.0, &blob);  // max epsilon per client
  bytes::PutInt64(total_bits, &blob);
  bytes::PutInt64(0, &blob);  // denied charges
  bytes::PutUint32(static_cast<uint32_t>(clients.size()), &blob);
  for (const EncodedClient& client : clients) {
    bytes::PutInt64(client.id, &blob);
    bytes::PutInt64(client.bits, &blob);
    bytes::PutDouble(0.0, &blob);  // epsilon
    bytes::PutUint32(static_cast<uint32_t>(client.values.size()), &blob);
    for (const auto& [value_id, bits] : client.values) {
      bytes::PutInt64(value_id, &blob);
      bytes::PutInt64(bits, &blob);
    }
  }
  return blob;
}

bool Decodes(const std::vector<uint8_t>& blob) {
  PrivacyMeter meter{MeterPolicy{}};
  size_t offset = 0;
  return PrivacyMeter::DecodeFrom(blob, &offset, &meter);
}

TEST(PrivacyMeterTest, DecodeRejectsDuplicateAndInconsistentEntries) {
  // The control: distinct clients, a zero entry, and values out of order.
  EXPECT_TRUE(Decodes(MeterBlob(
      3, {{7, 2, {{5, 1}, {2, 1}, {9, 0}}}, {3, 1, {{5, 1}}}, {4, 0, {}}})));
  // A client listed twice, also when both entries are zero.
  EXPECT_FALSE(Decodes(MeterBlob(2, {{7, 1, {{5, 1}}}, {7, 1, {{6, 1}}}})));
  EXPECT_FALSE(Decodes(MeterBlob(0, {{4, 0, {}}, {4, 0, {}}})));
  // A value listed twice for one client, also with a zero count.
  EXPECT_FALSE(Decodes(MeterBlob(2, {{7, 2, {{5, 1}, {5, 1}}}})));
  EXPECT_FALSE(Decodes(MeterBlob(1, {{7, 1, {{5, 0}, {6, 1}, {5, 0}}}})));
  // Value bits that miss the client total, and client bits that miss the
  // meter total.
  EXPECT_FALSE(Decodes(MeterBlob(2, {{7, 2, {{5, 1}}}})));
  EXPECT_FALSE(Decodes(MeterBlob(2, {{7, 1, {{5, 1}}}})));
}

TEST(PrivacyMeterTest, DecodeRejectsBitCountsThatOverflow) {
  // Counts whose sum passes INT64_MAX are corrupt: they are rejected, not
  // summed with signed overflow.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(Decodes(MeterBlob(kMax, {{0, kMax, {{1, kMax}}}})));
  // One client's value counts overflow.
  EXPECT_FALSE(Decodes(MeterBlob(kMax, {{0, kMax, {{1, kMax}, {2, 1}}}})));
  // Two clients' totals overflow.
  EXPECT_FALSE(
      Decodes(MeterBlob(kMax, {{0, kMax, {{1, kMax}}}, {1, 1, {{1, 1}}}})));
}

}  // namespace
}  // namespace bitpush
