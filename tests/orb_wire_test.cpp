// Wire-format tests: value codec roundtrips (including randomized
// property-style sweeps) and request/reply framing.
#include "orb/wire.h"

#include <gtest/gtest.h>

#include <random>

#include "orb/errors.h"

namespace adapt::orb {
namespace {

Value roundtrip(const Value& v) {
  ByteWriter w;
  encode_value(w, v);
  ByteReader r(w.bytes());
  Value out = decode_value(r);
  EXPECT_TRUE(r.done()) << "codec must consume exactly what it wrote";
  return out;
}

/// Deep structural equality (Value::operator== is identity for tables).
bool deep_equal(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_table()) return a == b;
  const Table& ta = *a.as_table();
  const Table& tb = *b.as_table();
  if (ta.size() != tb.size()) return false;
  for (const auto& [key, val] : ta) {
    if (!deep_equal(val, tb.get(key.to_value()))) return false;
  }
  return true;
}

TEST(WireValueTest, Scalars) {
  EXPECT_TRUE(roundtrip(Value()).is_nil());
  EXPECT_EQ(roundtrip(Value(true)).as_bool(), true);
  EXPECT_EQ(roundtrip(Value(false)).as_bool(), false);
  EXPECT_DOUBLE_EQ(roundtrip(Value(3.25)).as_number(), 3.25);
  EXPECT_DOUBLE_EQ(roundtrip(Value(-1e100)).as_number(), -1e100);
  EXPECT_EQ(roundtrip(Value("hello")).as_string(), "hello");
  EXPECT_EQ(roundtrip(Value("")).as_string(), "");
}

TEST(WireValueTest, BinaryString) {
  const std::string blob("\x00\x01\xff payload \x7f", 13);
  EXPECT_EQ(roundtrip(Value(blob)).as_string(), blob);
}

TEST(WireValueTest, ObjectRef) {
  ObjectRef ref{"tcp://10.0.0.1:9999", "monitor-1", "EventMonitor"};
  const Value out = roundtrip(Value(ref));
  EXPECT_EQ(out.as_object().endpoint, ref.endpoint);
  EXPECT_EQ(out.as_object().object_id, ref.object_id);
  EXPECT_EQ(out.as_object().interface, ref.interface);
}

TEST(WireValueTest, FlatTable) {
  auto t = Table::make();
  t->seti(1, Value(0.25));
  t->seti(2, Value(1.5));
  t->seti(3, Value(0.75));
  t->set(Value("host"), Value("node-3"));
  const Value out = roundtrip(Value(t));
  EXPECT_TRUE(deep_equal(Value(t), out));
}

TEST(WireValueTest, NestedTable) {
  auto inner = Table::make();
  inner->set(Value("deep"), Value(true));
  auto t = Table::make();
  t->set(Value("inner"), Value(inner));
  t->set(Value(false), Value("bool-key"));
  const Value out = roundtrip(Value(t));
  EXPECT_TRUE(deep_equal(Value(t), out));
}

TEST(WireValueTest, FunctionRejected) {
  auto fn = NativeFunction::make("f", [](const ValueList&) { return ValueList{}; });
  ByteWriter w;
  EXPECT_THROW(encode_value(w, Value(fn)), SerializationError);
}

TEST(WireValueTest, FunctionInsideTableRejected) {
  auto t = Table::make();
  t->set(Value("fn"), Value(NativeFunction::make("f", [](const ValueList&) {
    return ValueList{};
  })));
  ByteWriter w;
  EXPECT_THROW(encode_value(w, Value(t)), SerializationError);
}

TEST(WireValueTest, CyclicTableRejected) {
  auto t = Table::make();
  t->set(Value("self"), Value(t));
  ByteWriter w;
  EXPECT_THROW(encode_value(w, Value(t)), SerializationError);
}

TEST(WireValueTest, DeepNestingWithinLimitOk) {
  Value v(1.0);
  for (int i = 0; i < kMaxValueDepth - 1; ++i) {
    auto t = Table::make();
    t->seti(1, v);
    v = Value(t);
  }
  EXPECT_NO_THROW(roundtrip(v));
}

TEST(WireValueTest, GarbageTagRejected) {
  Bytes garbage{250};
  ByteReader r(garbage);
  EXPECT_THROW((void)decode_value(r), SerializationError);
}

TEST(WireValueTest, RandomizedRoundtripProperty) {
  // Property: decode(encode(v)) is structurally equal to v, for arbitrary
  // generated values.
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> pick(0, 5);
  std::uniform_real_distribution<double> unif(-1e6, 1e6);

  std::function<Value(int)> gen = [&](int depth) -> Value {
    switch (depth <= 0 ? pick(rng) % 4 : pick(rng)) {
      case 0: return {};
      case 1: return Value(pick(rng) % 2 == 0);
      case 2: return Value(unif(rng));
      case 3: {
        std::string s;
        const int len = pick(rng) * 7;
        for (int i = 0; i < len; ++i) s += static_cast<char>('a' + (pick(rng) * 31) % 26);
        return Value(std::move(s));
      }
      case 4: {
        ObjectRef ref{"inproc://h" + std::to_string(pick(rng)),
                      "o" + std::to_string(pick(rng)), "I"};
        return Value(std::move(ref));
      }
      default: {
        auto t = Table::make();
        const int n = pick(rng);
        for (int i = 0; i < n; ++i) t->seti(i + 1, gen(depth - 1));
        const int named = pick(rng) % 3;
        for (int i = 0; i < named; ++i) t->set(Value("k" + std::to_string(i)), gen(depth - 1));
        return Value(std::move(t));
      }
    }
  };

  for (int trial = 0; trial < 300; ++trial) {
    const Value v = gen(3);
    EXPECT_TRUE(deep_equal(v, roundtrip(v))) << "trial " << trial << ": " << v.str();
  }
}

TEST(WireMessageTest, RequestRoundtrip) {
  RequestMessage req;
  req.request_id = 77;
  req.oneway = true;
  req.object_id = "monitor-3";
  req.operation = "attachEventObserver";
  req.args = {Value("LoadIncrease"), Value(3.5), Value()};

  const Bytes bytes = encode_request(req);
  EXPECT_EQ(peek_type(bytes), MsgType::Request);
  const RequestMessage out = decode_request(bytes);
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_TRUE(out.oneway);
  EXPECT_EQ(out.object_id, "monitor-3");
  EXPECT_EQ(out.operation, "attachEventObserver");
  ASSERT_EQ(out.args.size(), 3u);
  EXPECT_EQ(out.args[0].as_string(), "LoadIncrease");
  EXPECT_DOUBLE_EQ(out.args[1].as_number(), 3.5);
  EXPECT_TRUE(out.args[2].is_nil());
}

TEST(WireMessageTest, ReplyRoundtrip) {
  ReplyMessage rep;
  rep.request_id = 9;
  rep.status = ReplyStatus::UserError;
  rep.result = Value("the message");
  const Bytes bytes = encode_reply(rep);
  EXPECT_EQ(peek_type(bytes), MsgType::Reply);
  const ReplyMessage out = decode_reply(bytes);
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_EQ(out.status, ReplyStatus::UserError);
  EXPECT_EQ(out.result.as_string(), "the message");
}

TEST(WireMessageTest, TypeConfusionRejected) {
  RequestMessage req;
  req.object_id = "x";
  req.operation = "y";
  const Bytes bytes = encode_request(req);
  EXPECT_THROW((void)decode_reply(bytes), SerializationError);
}

TEST(WireMessageTest, TrailingBytesRejected) {
  RequestMessage req;
  req.object_id = "x";
  req.operation = "y";
  Bytes bytes = encode_request(req);
  bytes.push_back(0xEE);
  EXPECT_THROW((void)decode_request(bytes), SerializationError);
}

TEST(WireMessageTest, EmptyPayloadRejected) {
  EXPECT_THROW((void)peek_type(Bytes{}), SerializationError);
}

TEST(WireMessageTest, ArgCountBeyondFrameRejected) {
  // A 22-byte request claiming 2^32-1 arguments: rejected as malformed
  // instead of reserving ~446 GB and dying with bad_alloc.
  ByteWriter w;
  w.u8(static_cast<uint8_t>(MsgType::Request));
  w.u64(1);           // request id
  w.u8(0);            // oneway
  w.str("");          // object id
  w.str("");          // operation
  w.u32(0xFFFFFFFFu); // argc
  const Bytes bytes = w.take();
  ASSERT_EQ(bytes.size(), 22u);
  EXPECT_THROW((void)decode_request(bytes), SerializationError);
}

}  // namespace
}  // namespace adapt::orb
