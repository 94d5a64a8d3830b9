#include <malloc.h>

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

// Regression: invalid-epsilon denials used to skip the journal, so they
// were never replayed — a restored ledger's denied-charge count diverged
// from an uninterrupted run. Such a denial is a decision like a cap's: a
// round records it in its outcome (attempted, not granted), the journal
// keeps that, and recovery replays it, so the restored ledger counts it
// once. Replayed as a grant, it diverges.
TEST(PrivacyMeterTest, InvalidEpsilonDenialsFlowThroughTheJournal) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PrivacyMeter live{MeterPolicy{}};
  EXPECT_FALSE(live.TryChargeBit(1, 2, nan));
  EXPECT_EQ(live.denied_charges(), 1);
  std::vector<uint8_t> live_ledger;
  live.EncodeTo(&live_ledger);

  struct Decision {
    int64_t client_id = 0;
    int64_t value_id = 0;
    double epsilon = 0.0;
    bool granted = false;
  };
  for (const bool granted : {false, true}) {
    PrivacyMeter restored{MeterPolicy{}};
    restored.RegisterValue(2);
    restored.Register(1);
    const Decision decision{1, 2, nan, granted};
    EXPECT_EQ(restored.ReplayCharges(
                  1, [&decision](size_t) { return decision; }),
              granted ? 0u : 1u);
    EXPECT_EQ(restored.denied_charges(), granted ? 0 : 1);
    std::vector<uint8_t> ledger;
    restored.EncodeTo(&ledger);
    if (!granted) {
      EXPECT_EQ(ledger, live_ledger);
    }
  }
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
  // A row holds 32-bit counts: a count above UINT32_MAX is corrupt, and so
  // are counts whose sum passes INT64_MAX. They are rejected, not summed
  // with signed overflow.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMaxCount = std::numeric_limits<uint32_t>::max();
  EXPECT_TRUE(Decodes(MeterBlob(kMaxCount, {{0, kMaxCount, {{1, kMaxCount}}}})));
  EXPECT_FALSE(Decodes(
      MeterBlob(kMaxCount + 1, {{0, kMaxCount + 1, {{1, kMaxCount + 1}}}})));
  // A client total above UINT32_MAX from counts that each fit.
  EXPECT_FALSE(Decodes(MeterBlob(
      kMaxCount + 1, {{0, kMaxCount + 1, {{1, kMaxCount}, {2, 1}}}})));
  // One client's value counts overflow.
  EXPECT_FALSE(Decodes(MeterBlob(kMax, {{0, kMax, {{1, kMax}, {2, 1}}}})));
  // Two clients' totals overflow.
  EXPECT_FALSE(
      Decodes(MeterBlob(kMax, {{0, kMax, {{1, kMax}}}, {1, 1, {{1, 1}}}})));
}

TEST(PrivacyMeterTest, CountAtUint32MaxDeniesTheNextCharge) {
  constexpr int64_t kMaxCount = std::numeric_limits<uint32_t>::max();
  // Client 5 at UINT32_MAX bits of value 1; client 6 at UINT32_MAX bits
  // over two values.
  const std::vector<uint8_t> blob = MeterBlob(
      2 * kMaxCount,
      {{5, kMaxCount, {{1, kMaxCount}}},
       {6, kMaxCount, {{1, kMaxCount - 1}, {2, 1}}}});
  for (const bool bound : {false, true}) {
    PrivacyMeter meter{MeterPolicy{}};
    if (bound) meter.BindLattice(5, 1, 2);
    size_t offset = 0;
    ASSERT_TRUE(PrivacyMeter::DecodeFrom(blob, &offset, &meter));
    // The caps are INT64_MAX, so only the 32-bit count denies: a further
    // bit of the value, and a bit of another value past the client total.
    EXPECT_FALSE(meter.TryChargeBit(5, 1, 0.0));
    EXPECT_FALSE(meter.TryChargeBit(5, 3, 0.0));
    EXPECT_FALSE(meter.TryChargeBit(6, 3, 0.0));
    EXPECT_EQ(meter.denied_charges(), 3);
    EXPECT_EQ(meter.ClientBits(5), kMaxCount);
    EXPECT_EQ(meter.ValueBits(6, 1), kMaxCount - 1);
    std::vector<uint8_t> again;
    meter.EncodeTo(&again);
    // The same ledger but for the denied count in the header.
    std::vector<uint8_t> expected = blob;
    std::vector<uint8_t> denied;
    bytes::PutInt64(3, &denied);
    std::copy(denied.begin(), denied.end(), expected.begin() + 32);
    EXPECT_EQ(again, expected) << (bound ? "bound" : "unbound");
  }
}

// Charges `meter` with a sequence that covers lattice and off-lattice ids,
// INT64_MIN and INT64_MAX, repeated ids, clients with several values,
// invalid epsilons and every cap, and returns its decisions.
std::vector<bool> ChargeMixedSequence(PrivacyMeter* meter) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> ids = {kMin, kMin + 1, -7, -1, 0, 1, 2, 3, 5,
                              999, 1000,     1001, 1003, 4000, kMax - 3,
                              kMax};
  Rng rng(41);
  // Lattice ids (1000, 1003, ...) and ids between and beyond them.
  for (int i = 0; i < 400; ++i) {
    ids.push_back(1000 + 3 * static_cast<int64_t>(rng.NextBelow(300)));
    ids.push_back(static_cast<int64_t>(rng.NextBelow(5000)) - 1000);
  }
  std::vector<bool> decisions;
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    const double epsilon = 0.25 * static_cast<double>(i % 7);
    decisions.push_back(meter->TryChargeBit(id, 7, epsilon));
    if (i % 3 == 0) decisions.push_back(meter->TryChargeBit(id, 9, 0.5));
    if (i % 5 == 0) decisions.push_back(meter->TryChargeBit(id, -4, 0.0));
    if (i % 11 == 0) {
      decisions.push_back(meter->TryChargeBit(
          id, 7, std::numeric_limits<double>::quiet_NaN()));
      decisions.push_back(meter->TryChargeBit(id, 8, -1.0));
      decisions.push_back(meter->TryChargeBit(
          id, 8, std::numeric_limits<double>::infinity()));
    }
    // Past the epsilon cap.
    if (i % 13 == 0) decisions.push_back(meter->TryChargeBit(id, 10, 60.0));
  }
  return decisions;
}

TEST(PrivacyMeterTest, LatticeBoundMeterDecidesAndEncodesAsAnUnboundOne) {
  const MeterPolicy policy = RoomyPolicy();
  PrivacyMeter unbound(policy);
  PrivacyMeter bound(policy);
  // Ids 1000, 1003, ..., 1897 are the lattice; everything else goes
  // through the directory.
  bound.BindLattice(1000, 3, 300);
  EXPECT_EQ(bound.rows(), 300u);
  EXPECT_EQ(bound.Row(1003), 1u);
  EXPECT_EQ(bound.Row(1897), 299u);
  EXPECT_EQ(bound.Row(1001), PrivacyMeter::kNoRow);
  EXPECT_EQ(bound.Row(1900), PrivacyMeter::kNoRow);
  EXPECT_EQ(bound.Row(std::numeric_limits<int64_t>::min()),
            PrivacyMeter::kNoRow);
  const std::vector<bool> unbound_decisions = ChargeMixedSequence(&unbound);
  const std::vector<bool> bound_decisions = ChargeMixedSequence(&bound);
  EXPECT_EQ(bound_decisions, unbound_decisions);
  const size_t denials = static_cast<size_t>(
      std::count(unbound_decisions.begin(), unbound_decisions.end(), false));
  // Every kind of denial happened: invalid epsilons, the per-value,
  // per-client and epsilon caps.
  EXPECT_GT(denials, 100u);
  EXPECT_EQ(bound.denied_charges(), unbound.denied_charges());
  EXPECT_EQ(bound.total_bits(), unbound.total_bits());
  EXPECT_EQ(bound.total_epsilon(), unbound.total_epsilon());
  std::vector<uint8_t> unbound_bytes;
  std::vector<uint8_t> bound_bytes;
  unbound.EncodeTo(&unbound_bytes);
  bound.EncodeTo(&bound_bytes);
  EXPECT_EQ(bound_bytes, unbound_bytes);
}

TEST(PrivacyMeterTest, OffLatticeSnapshotDecodesIntoABoundMeter) {
  const MeterPolicy policy = RoomyPolicy();
  PrivacyMeter source(policy);
  ChargeMixedSequence(&source);
  std::vector<uint8_t> blob;
  source.EncodeTo(&blob);
  // A meter bound to a lattice the snapshot only partly lies on, which has
  // charges of its own: the decode overwrites them.
  PrivacyMeter bound(policy);
  bound.BindLattice(-2, 2, 1000);
  ASSERT_TRUE(bound.TryChargeBit(-2, 7, 0.5));
  ASSERT_TRUE(bound.TryChargeBit(77777, 3, 0.5));
  size_t offset = 0;
  ASSERT_TRUE(PrivacyMeter::DecodeFrom(blob, &offset, &bound));
  EXPECT_EQ(offset, blob.size());
  EXPECT_EQ(bound.ClientBits(77777), 0);
  std::vector<uint8_t> again;
  bound.EncodeTo(&again);
  EXPECT_EQ(again, blob);
  // And the decoded meter charges on as the source does.
  EXPECT_EQ(ChargeMixedSequence(&bound), ChargeMixedSequence(&source));
  std::vector<uint8_t> bound_after;
  std::vector<uint8_t> source_after;
  bound.EncodeTo(&bound_after);
  source.EncodeTo(&source_after);
  EXPECT_EQ(bound_after, source_after);
}

TEST(PrivacyMeterTest, ClosedMeterDecodeRejectsIdsItLacks) {
  // A meter bound to its clients and its one value, its registration
  // closed: a new value id would cost it a column as long as its rows, so
  // its decode rejects a ledger naming any other id in its checks, before
  // it writes or allocates anything for it.
  constexpr int64_t kClients = int64_t{1} << 14;
  PrivacyMeter meter{MeterPolicy{}};
  meter.RegisterValue(7);
  meter.BindLattice(0, 1, kClients);
  meter.CloseRegistration();
  ASSERT_TRUE(meter.TryChargeBit(5, 7, 0.0));
  std::vector<uint8_t> before;
  meter.EncodeTo(&before);
  const auto decodes = [&meter](const std::vector<uint8_t>& blob) {
    size_t offset = 0;
    const bool decoded = PrivacyMeter::DecodeFrom(blob, &offset, &meter);
    EXPECT_EQ(offset, decoded ? blob.size() : 0u);
    return decoded;
  };
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const struct mallinfo2 heap_before = mallinfo2();
#endif
  // One client listing 1,000 value ids: a 16 KB blob that would add 64 MB
  // of columns.
  EncodedClient many{3, 1000, {}};
  for (int64_t value_id = 0; value_id < 1000; ++value_id) {
    many.values.emplace_back(value_id, 1);
  }
  EXPECT_FALSE(decodes(MeterBlob(1000, {many})));
  // One value the meter lacks, and one client it has no row for.
  EXPECT_FALSE(decodes(MeterBlob(2, {{3, 1, {{7, 1}}}, {4, 1, {{8, 1}}}})));
  EXPECT_FALSE(
      decodes(MeterBlob(2, {{3, 1, {{7, 1}}}, {kClients, 1, {{7, 1}}}})));
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const struct mallinfo2 heap_after = mallinfo2();
  EXPECT_LT(heap_after.uordblks + heap_after.hblkhd,
            heap_before.uordblks + heap_before.hblkhd + 65536);
#endif
  EXPECT_EQ(meter.rows(), static_cast<size_t>(kClients));
  std::vector<uint8_t> after;
  meter.EncodeTo(&after);
  EXPECT_EQ(after, before);
  // A ledger of the meter's own ids fills its rows.
  const std::vector<uint8_t> own =
      MeterBlob(2, {{3, 1, {{7, 1}}}, {kClients - 1, 1, {{7, 1}}}});
  EXPECT_TRUE(decodes(own));
  EXPECT_EQ(meter.ClientBits(5), 0);
  std::vector<uint8_t> again;
  meter.EncodeTo(&again);
  EXPECT_EQ(again, own);
}

TEST(PrivacyMeterTest, ReplayStopsAtAGrantOfAnIdTheMeterLacks) {
  // The meter a replay runs on has its registration closed, so a
  // journaled grant of a client without a row or of a value without a
  // count is corrupt: the replay stops there, as at a diverged decision,
  // with that charge unapplied. A denial of such an id replays.
  struct Decision {
    int64_t client_id = 0;
    int64_t value_id = 0;
    double epsilon = 0.0;
    bool granted = false;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Decision& last :
       {Decision{9, 7, 0.0, true}, Decision{1, 8, 0.0, true},
        Decision{9, 8, nan, false}}) {
    const std::vector<Decision> decisions = {
        {0, 7, 0.0, true}, {1, 7, 0.5, true}, {1, 7, 0.0, false}, last};
    PrivacyMeter meter{MeterPolicy{}};
    meter.RegisterValue(7);
    meter.BindLattice(0, 1, 4);
    meter.CloseRegistration();
    const size_t applied = meter.ReplayCharges(
        decisions.size(), [&decisions](size_t i) { return decisions[i]; });
    EXPECT_EQ(applied, last.granted ? 3u : 4u);
    EXPECT_EQ(meter.total_bits(), 2);
    EXPECT_EQ(meter.denied_charges(), last.granted ? 1 : 2);
    EXPECT_EQ(meter.rows(), 4u);
  }
}

// The row's size is pinned where it is declared (a static_assert in
// privacy_meter.h); this pins what a bound meter allocates around it.
TEST(PrivacyMeterTest, BoundMeterAllocatesSixteenBytesPerClient) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "a sanitizer's allocator keeps no glibc heap counts";
#else
  // Bytes the allocator has handed out, mmapped blocks included.
  const auto heap_bytes_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  constexpr size_t kClients = size_t{1} << 20;
  const size_t before = heap_bytes_in_use();
  PrivacyMeter meter{MeterPolicy{}};
  meter.RegisterValue(7);
  meter.BindLattice(0, 1, kClients);
  for (size_t k = 0; k < kClients; k += 4099) {
    meter.TryChargeBit(static_cast<int64_t>(k), 7, 0.0);
  }
  const size_t allocated = heap_bytes_in_use() - before;
  // One 16-byte row per client, in one mapped block, and a few small
  // vectors: the value id and its order.
  EXPECT_GE(allocated, 16 * kClients);
  EXPECT_LE(allocated, 16 * kClients + 8192);
#endif
}

}  // namespace
}  // namespace bitpush
