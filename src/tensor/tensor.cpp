#include "tensor/tensor.h"

#include <cmath>
#include <cstring>

#include "support/logging.h"

namespace sod2 {

TensorAllocStats&
TensorAllocStats::instance()
{
    static TensorAllocStats stats;
    return stats;
}

TensorAllocStats::ThreadScope&
TensorAllocStats::threadScope()
{
    static thread_local ThreadScope scope;
    return scope;
}

void
TensorAllocStats::recordAlloc(size_t bytes)
{
    size_t live =
        live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    allocs_.fetch_add(1, std::memory_order_relaxed);
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (live > peak &&
           !peak_.compare_exchange_weak(peak, live,
                                        std::memory_order_relaxed)) {
    }

    ThreadScope& ts = threadScope();
    ts.live += static_cast<int64_t>(bytes);
    ++ts.allocs;
    if (ts.live > 0 && static_cast<size_t>(ts.live) > ts.peak)
        ts.peak = static_cast<size_t>(ts.live);
}

void
TensorAllocStats::recordFree(size_t bytes)
{
    // Saturating decrement: reset() may have zeroed the counter while
    // buffers recorded before it were still live.
    size_t cur = live_.load(std::memory_order_relaxed);
    while (!live_.compare_exchange_weak(cur,
                                        cur - (bytes < cur ? bytes : cur),
                                        std::memory_order_relaxed)) {
    }
    threadScope().live -= static_cast<int64_t>(bytes);
}

void
TensorAllocStats::reset()
{
    live_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    allocs_.store(0, std::memory_order_relaxed);
}

namespace {

/** Owned buffer whose lifetime is reported to TensorAllocStats. */
std::shared_ptr<uint8_t[]>
makeTrackedBuffer(size_t bytes)
{
    TensorAllocStats::instance().recordAlloc(bytes);
    // Custom deleter reports the free before releasing memory.
    return std::shared_ptr<uint8_t[]>(
        new uint8_t[bytes > 0 ? bytes : 1], [bytes](uint8_t* p) {
            TensorAllocStats::instance().recordFree(bytes);
            delete[] p;
        });
}

}  // namespace

Tensor::Tensor(DType dtype, Shape shape)
    : dtype_(dtype), shape_(std::move(shape))
{
    owner_ = makeTrackedBuffer(byteSize());
    data_ = owner_.get();
}

Tensor
Tensor::view(DType dtype, Shape shape, void* data)
{
    Tensor t;
    t.dtype_ = dtype;
    t.shape_ = std::move(shape);
    t.data_ = static_cast<uint8_t*>(data);
    return t;
}

Tensor
Tensor::adopt(DType dtype, Shape shape, void* data,
              std::shared_ptr<uint8_t[]> owner)
{
    Tensor t;
    t.dtype_ = dtype;
    t.shape_ = std::move(shape);
    t.data_ = static_cast<uint8_t*>(data);
    t.owner_ = std::move(owner);
    return t;
}

Tensor
Tensor::zeros(DType dtype, const Shape& shape)
{
    Tensor t(dtype, shape);
    std::memset(t.data_, 0, t.byteSize());
    return t;
}

Tensor
Tensor::full(DType dtype, const Shape& shape, double value)
{
    Tensor t(dtype, shape);
    int64_t n = t.numElements();
    switch (dtype) {
      case DType::kFloat32: {
        float v = static_cast<float>(value);
        float* p = t.data<float>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = v;
        break;
      }
      case DType::kInt64: {
        int64_t v = static_cast<int64_t>(value);
        int64_t* p = t.data<int64_t>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = v;
        break;
      }
      case DType::kInt32: {
        int32_t v = static_cast<int32_t>(value);
        int32_t* p = t.data<int32_t>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = v;
        break;
      }
      case DType::kBool: {
        bool v = value != 0.0;
        bool* p = t.data<bool>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = v;
        break;
      }
    }
    return t;
}

Tensor
Tensor::randomUniform(const Shape& shape, Rng& rng, float lo, float hi)
{
    Tensor t(DType::kFloat32, shape);
    float* p = t.data<float>();
    int64_t n = t.numElements();
    for (int64_t i = 0; i < n; ++i)
        p[i] = rng.uniformFloat(lo, hi);
    return t;
}

Tensor
Tensor::fromInt64(const std::vector<int64_t>& values)
{
    Tensor t(DType::kInt64, Shape({static_cast<int64_t>(values.size())}));
    // An empty vector's data() may be null, and memcpy from null is
    // undefined even for zero bytes.
    if (!values.empty())
        std::memcpy(t.data_, values.data(),
                    values.size() * sizeof(int64_t));
    return t;
}

Tensor
Tensor::scalarInt64(int64_t value)
{
    Tensor t(DType::kInt64, Shape());
    *t.data<int64_t>() = value;
    return t;
}

Tensor
Tensor::scalarFloat(float value)
{
    Tensor t(DType::kFloat32, Shape());
    *t.data<float>() = value;
    return t;
}

Tensor
Tensor::clone() const
{
    SOD2_CHECK(isValid()) << "clone of null tensor";
    Tensor t(dtype_, shape_);
    std::memcpy(t.data_, data_, byteSize());
    return t;
}

Tensor
Tensor::reshaped(Shape shape) const
{
    SOD2_CHECK(isValid());
    SOD2_CHECK_EQ(shape.numElements(), numElements())
        << "reshape " << shape_.toString() << " -> " << shape.toString();
    Tensor t = *this;
    t.shape_ = std::move(shape);
    return t;
}

std::vector<int64_t>
Tensor::toInt64Vector() const
{
    SOD2_CHECK(isValid());
    int64_t n = numElements();
    std::vector<int64_t> out(n);
    switch (dtype_) {
      case DType::kInt64: {
        const int64_t* p = data<int64_t>();
        out.assign(p, p + n);
        break;
      }
      case DType::kInt32: {
        const int32_t* p = data<int32_t>();
        for (int64_t i = 0; i < n; ++i)
            out[i] = p[i];
        break;
      }
      case DType::kBool: {
        const bool* p = data<bool>();
        for (int64_t i = 0; i < n; ++i)
            out[i] = p[i] ? 1 : 0;
        break;
      }
      default:
        SOD2_THROW << "toInt64Vector on dtype " << dtypeName(dtype_);
    }
    return out;
}

bool
Tensor::allClose(const Tensor& a, const Tensor& b, float atol, float rtol)
{
    if (!a.isValid() || !b.isValid())
        return false;
    if (a.dtype() != b.dtype() || a.shape() != b.shape())
        return false;
    if (a.dtype() != DType::kFloat32) {
        return std::memcmp(a.raw(), b.raw(), a.byteSize()) == 0;
    }
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    int64_t n = a.numElements();
    for (int64_t i = 0; i < n; ++i) {
        float diff = std::fabs(pa[i] - pb[i]);
        float tol = atol + rtol * std::fabs(pb[i]);
        if (diff > tol || std::isnan(diff))
            return false;
    }
    return true;
}

void
Tensor::checkType(DType expected) const
{
    SOD2_CHECK(isValid()) << "access to null tensor";
    SOD2_CHECK(dtype_ == expected)
        << "dtype mismatch: tensor is " << dtypeName(dtype_)
        << ", accessed as " << dtypeName(expected);
}

}  // namespace sod2
