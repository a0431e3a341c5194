#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pcu/buffer.hpp"

namespace {

TEST(PcuBuffer, RoundTripScalars) {
  pcu::OutBuffer out;
  out.pack<int>(42);
  out.pack<double>(3.5);
  out.pack<std::uint64_t>(1ull << 40);
  out.pack<char>('x');
  pcu::InBuffer in(std::move(out).take());
  EXPECT_EQ(in.unpack<int>(), 42);
  EXPECT_EQ(in.unpack<double>(), 3.5);
  EXPECT_EQ(in.unpack<std::uint64_t>(), 1ull << 40);
  EXPECT_EQ(in.unpack<char>(), 'x');
  EXPECT_TRUE(in.done());
}

TEST(PcuBuffer, RoundTripString) {
  pcu::OutBuffer out;
  out.packString("hello mesh");
  out.packString("");
  pcu::InBuffer in(std::move(out).take());
  EXPECT_EQ(in.unpackString(), "hello mesh");
  EXPECT_EQ(in.unpackString(), "");
  EXPECT_TRUE(in.done());
}

TEST(PcuBuffer, RoundTripVector) {
  pcu::OutBuffer out;
  std::vector<int> v{1, 2, 3, 4, 5};
  std::vector<double> w;
  out.packVector(v);
  out.packVector(w);
  pcu::InBuffer in(std::move(out).take());
  EXPECT_EQ(in.unpackVector<int>(), v);
  EXPECT_TRUE(in.unpackVector<double>().empty());
  EXPECT_TRUE(in.done());
}

TEST(PcuBuffer, EmptyVectorRoundTripsAlone) {
  // A zero-length payload: the buffer holds only the length prefix, and
  // the unpacked vector owns no storage (its data() may be null).
  pcu::OutBuffer out;
  out.packVector(std::vector<std::uint8_t>{});
  pcu::InBuffer in(std::move(out).take());
  EXPECT_TRUE(in.unpackVector<std::uint8_t>().empty());
  EXPECT_TRUE(in.done());
}

TEST(PcuBuffer, MixedSequencePreservesOrder) {
  pcu::OutBuffer out;
  out.pack<int>(7);
  out.packString("abc");
  out.packVector(std::vector<long>{10, 20});
  out.pack<float>(1.25f);
  pcu::InBuffer in(std::move(out).take());
  EXPECT_EQ(in.unpack<int>(), 7);
  EXPECT_EQ(in.unpackString(), "abc");
  EXPECT_EQ(in.unpackVector<long>(), (std::vector<long>{10, 20}));
  EXPECT_EQ(in.unpack<float>(), 1.25f);
}

TEST(PcuBuffer, RemainingTracksConsumption) {
  pcu::OutBuffer out;
  out.pack<std::uint32_t>(1);
  out.pack<std::uint32_t>(2);
  pcu::InBuffer in(std::move(out).take());
  EXPECT_EQ(in.remaining(), 8u);
  (void)in.unpack<std::uint32_t>();
  EXPECT_EQ(in.remaining(), 4u);
  (void)in.unpack<std::uint32_t>();
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_TRUE(in.done());
}

TEST(PcuBuffer, StructPackUnpack) {
  struct Pod {
    int a;
    double b;
  };
  pcu::OutBuffer out;
  out.pack(Pod{5, -2.5});
  pcu::InBuffer in(std::move(out).take());
  auto p = in.unpack<Pod>();
  EXPECT_EQ(p.a, 5);
  EXPECT_EQ(p.b, -2.5);
}

TEST(PcuBuffer, ClearResets) {
  pcu::OutBuffer out;
  out.pack<int>(1);
  EXPECT_FALSE(out.empty());
  out.clear();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.size(), 0u);
}

TEST(PcuBuffer, PackBytesRaw) {
  pcu::OutBuffer out;
  const char raw[4] = {'a', 'b', 'c', 'd'};
  out.packBytes(raw, 4);
  EXPECT_EQ(out.size(), 4u);
  pcu::InBuffer in(std::move(out).take());
  EXPECT_EQ(in.unpack<char>(), 'a');
  EXPECT_EQ(in.unpack<char>(), 'b');
  EXPECT_EQ(in.unpack<char>(), 'c');
  EXPECT_EQ(in.unpack<char>(), 'd');
}

}  // namespace
