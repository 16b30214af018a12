/** Tests for the tensor substrate: shapes, storage, broadcasting. */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "support/logging.h"
#include "support/rng.h"
#include "tensor/broadcast.h"
#include "tensor/tensor.h"

namespace sod2 {
namespace {

TEST(Shape, BasicProperties)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.numElements(), 24);
    EXPECT_EQ(s.strides(), (std::vector<int64_t>{12, 4, 1}));
    EXPECT_EQ(s.toString(), "[2, 3, 4]");
}

TEST(Shape, ScalarShape)
{
    Shape s;
    EXPECT_EQ(s.rank(), 0);
    EXPECT_EQ(s.numElements(), 1);
    EXPECT_TRUE(s.strides().empty());
}

TEST(Shape, NegativeAxisNormalization)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.dimAt(-1), 4);
    EXPECT_EQ(s.dimAt(-3), 2);
    EXPECT_EQ(normalizeAxis(-1, 3), 2);
    EXPECT_THROW(normalizeAxis(3, 3), Error);
    EXPECT_THROW(normalizeAxis(-4, 3), Error);
}

TEST(Tensor, AllocationAndTypedAccess)
{
    Tensor t = Tensor::zeros(DType::kFloat32, Shape({2, 2}));
    EXPECT_TRUE(t.isValid());
    EXPECT_EQ(t.byteSize(), 16u);
    t.data<float>()[3] = 2.5f;
    EXPECT_EQ(t.data<float>()[3], 2.5f);
    EXPECT_THROW(t.data<int64_t>(), Error);
}

TEST(Tensor, FullFillsEveryDType)
{
    EXPECT_EQ(Tensor::full(DType::kInt64, Shape({3}), 7).toInt64Vector(),
              (std::vector<int64_t>{7, 7, 7}));
    Tensor f = Tensor::full(DType::kFloat32, Shape({2}), 1.5);
    EXPECT_EQ(f.data<float>()[1], 1.5f);
    Tensor b = Tensor::full(DType::kBool, Shape({2}), 1);
    EXPECT_TRUE(b.data<bool>()[0]);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a = Tensor::full(DType::kFloat32, Shape({4}), 1.0);
    Tensor b = a.clone();
    b.data<float>()[0] = 9.0f;
    EXPECT_EQ(a.data<float>()[0], 1.0f);
}

TEST(Tensor, CopyShares)
{
    Tensor a = Tensor::full(DType::kFloat32, Shape({4}), 1.0);
    Tensor b = a;
    b.data<float>()[0] = 9.0f;
    EXPECT_EQ(a.data<float>()[0], 9.0f);
}

TEST(Tensor, ReshapedSharesBuffer)
{
    Tensor a = Tensor::full(DType::kFloat32, Shape({2, 6}), 3.0);
    Tensor b = a.reshaped(Shape({3, 4}));
    EXPECT_EQ(b.shape(), Shape({3, 4}));
    EXPECT_EQ(b.raw(), a.raw());
    EXPECT_THROW(a.reshaped(Shape({5})), Error);
}

TEST(Tensor, ViewWrapsExternalMemory)
{
    float buf[6] = {0, 1, 2, 3, 4, 5};
    Tensor v = Tensor::view(DType::kFloat32, Shape({2, 3}), buf);
    EXPECT_EQ(v.data<float>()[4], 4.0f);
    v.data<float>()[0] = 10.0f;
    EXPECT_EQ(buf[0], 10.0f);
}

TEST(Tensor, ToInt64VectorConversions)
{
    Tensor i32 = Tensor::full(DType::kInt32, Shape({2}), -3);
    EXPECT_EQ(i32.toInt64Vector(), (std::vector<int64_t>{-3, -3}));
    Tensor b = Tensor::full(DType::kBool, Shape({2}), 1);
    EXPECT_EQ(b.toInt64Vector(), (std::vector<int64_t>{1, 1}));
    Tensor f = Tensor::full(DType::kFloat32, Shape({1}), 1.0);
    EXPECT_THROW(f.toInt64Vector(), Error);
}

TEST(Tensor, FromInt64EmptyVector)
{
    // An empty vector has no storage to copy from; under
    // -fsanitize=undefined a null memcpy source would be reported.
    Tensor t = Tensor::fromInt64({});
    EXPECT_EQ(t.dtype(), DType::kInt64);
    EXPECT_EQ(t.shape(), Shape({0}));
    EXPECT_EQ(t.numElements(), 0);
    EXPECT_TRUE(t.toInt64Vector().empty());
}

TEST(Tensor, AllCloseToleratesSmallDiffs)
{
    Tensor a = Tensor::full(DType::kFloat32, Shape({8}), 1.0);
    Tensor b = a.clone();
    EXPECT_TRUE(Tensor::allClose(a, b));
    b.data<float>()[2] = 1.00001f;
    EXPECT_TRUE(Tensor::allClose(a, b));
    b.data<float>()[2] = 1.1f;
    EXPECT_FALSE(Tensor::allClose(a, b));
}

TEST(Tensor, AllocStatsTrackPeak)
{
    TensorAllocStats& stats = TensorAllocStats::instance();
    stats.reset();
    {
        Tensor a(DType::kFloat32, Shape({1024}));  // 4 KiB
        EXPECT_EQ(stats.liveBytes(), 4096u);
        {
            Tensor b(DType::kFloat32, Shape({1024}));
            EXPECT_EQ(stats.liveBytes(), 8192u);
        }
        EXPECT_EQ(stats.liveBytes(), 4096u);
        EXPECT_EQ(stats.peakBytes(), 8192u);
    }
    EXPECT_EQ(stats.liveBytes(), 0u);
    EXPECT_EQ(stats.allocCount(), 2u);
}

TEST(Broadcast, ResultShapes)
{
    EXPECT_EQ(broadcastShapes(Shape({2, 3}), Shape({2, 3})),
              Shape({2, 3}));
    EXPECT_EQ(broadcastShapes(Shape({2, 1}), Shape({1, 3})),
              Shape({2, 3}));
    EXPECT_EQ(broadcastShapes(Shape({3}), Shape({2, 3})), Shape({2, 3}));
    EXPECT_EQ(broadcastShapes(Shape(), Shape({2, 3})), Shape({2, 3}));
    EXPECT_THROW(broadcastShapes(Shape({2}), Shape({3})), Error);
}

TEST(Broadcast, BroadcastableTo)
{
    EXPECT_TRUE(broadcastableTo(Shape({1, 3}), Shape({5, 3})));
    EXPECT_TRUE(broadcastableTo(Shape({3}), Shape({5, 3})));
    EXPECT_FALSE(broadcastableTo(Shape({5, 3}), Shape({3})));
    EXPECT_FALSE(broadcastableTo(Shape({2, 3}), Shape({5, 3})));
}

TEST(Broadcast, StridesZeroOnBroadcastDims)
{
    auto s = broadcastStrides(Shape({1, 3}), Shape({4, 3}));
    EXPECT_EQ(s, (std::vector<int64_t>{0, 1}));
    auto s2 = broadcastStrides(Shape({3}), Shape({4, 3}));
    EXPECT_EQ(s2, (std::vector<int64_t>{0, 1}));
}

/** Property: broadcastIndex reproduces the naive coordinate expansion. */
TEST(Broadcast, IndexMappingMatchesNaive)
{
    Rng rng(3);
    for (int trial = 0; trial < 30; ++trial) {
        // Random "to" shape of rank 1-4, random compatible "from" shape.
        int rank = static_cast<int>(rng.uniformInt(1, 4));
        std::vector<int64_t> to_dims, from_dims;
        for (int i = 0; i < rank; ++i) {
            int64_t d = rng.uniformInt(1, 4);
            to_dims.push_back(d);
            from_dims.push_back(rng.bernoulli(0.4f) ? 1 : d);
        }
        Shape to(to_dims), from(from_dims);
        auto fs = broadcastStrides(from, to);
        auto ts = to.strides();
        auto from_strides = from.strides();
        for (int64_t flat = 0; flat < to.numElements(); ++flat) {
            // Naive: decode coords, clamp broadcast dims, re-encode.
            int64_t rem = flat, expect = 0;
            for (int d = 0; d < rank; ++d) {
                int64_t coord = rem / ts[d];
                rem %= ts[d];
                int64_t c = from.dim(d) == 1 ? 0 : coord;
                expect += c * from_strides[d];
            }
            EXPECT_EQ(broadcastIndex(flat, ts, fs), expect);
        }
    }
}

}  // namespace
}  // namespace sod2
