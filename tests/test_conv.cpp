#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "conv/conv.h"
#include "conv/pointwise.h"
#include "conv/tucker_conv.h"
#include "exec/conv_plan.h"
#include "linalg/gemm.h"

namespace tdc {
namespace {

TEST(ConvShape, OutputGeometry) {
  const ConvShape valid = ConvShape::valid_conv(3, 8, 10, 12, 3, 3);
  EXPECT_EQ(valid.out_h(), 8);
  EXPECT_EQ(valid.out_w(), 10);

  const ConvShape same = ConvShape::same(3, 8, 14, 3);
  EXPECT_EQ(same.out_h(), 14);
  EXPECT_EQ(same.out_w(), 14);

  const ConvShape strided = ConvShape::same(3, 8, 14, 3, 2);
  EXPECT_EQ(strided.out_h(), 7);
}

TEST(ConvShape, FlopsAndParams) {
  const ConvShape s = ConvShape::valid_conv(4, 8, 6, 6, 3, 3);
  EXPECT_DOUBLE_EQ(s.params(), 4.0 * 8 * 9);
  EXPECT_DOUBLE_EQ(s.flops(), 2.0 * 4 * 4 * 8 * 4 * 9);
}

TEST(ConvShape, Validity) {
  ConvShape s = ConvShape::valid_conv(1, 1, 2, 2, 3, 3);
  EXPECT_FALSE(s.valid());  // filter bigger than image
  s = ConvShape::same(1, 1, 4, 3);
  EXPECT_TRUE(s.valid());
}

TEST(ConvReference, HandComputed1d) {
  // 1×1×4 input, 1×1×1×2 kernel: sliding dot product.
  const ConvShape shape = ConvShape::valid_conv(1, 1, 1, 4, 1, 2);
  Tensor x({1, 1, 4});
  for (int i = 0; i < 4; ++i) {
    x[i] = static_cast<float>(i + 1);  // 1 2 3 4
  }
  Tensor k({1, 1, 1, 2});
  k[0] = 1.0f;
  k[1] = 10.0f;
  const Tensor y = conv2d_reference(x, k, shape);
  ASSERT_EQ(y.numel(), 3);
  EXPECT_FLOAT_EQ(y[0], 1 + 20);
  EXPECT_FLOAT_EQ(y[1], 2 + 30);
  EXPECT_FLOAT_EQ(y[2], 3 + 40);
}

TEST(ConvReference, PaddingZeroFills) {
  const ConvShape shape = ConvShape::same(1, 1, 3, 3);
  Tensor x = Tensor::full({1, 3, 3}, 1.0f);
  Tensor k = Tensor::full({1, 1, 3, 3}, 1.0f);
  const Tensor y = conv2d_reference(x, k, shape);
  EXPECT_FLOAT_EQ(y(0, 1, 1), 9.0f);  // full window
  EXPECT_FLOAT_EQ(y(0, 0, 0), 4.0f);  // corner sees 2×2
  EXPECT_FLOAT_EQ(y(0, 0, 1), 6.0f);  // edge sees 2×3
}

TEST(ConvReference, ShapeMismatchThrows) {
  const ConvShape shape = ConvShape::same(2, 3, 4, 3);
  Tensor x({3, 4, 4});  // wrong C
  Tensor k({2, 3, 3, 3});
  EXPECT_THROW(conv2d_reference(x, k, shape), Error);
}

TEST(PadChw, Geometry) {
  Rng rng(91);
  const Tensor x = Tensor::random_uniform({2, 3, 4}, rng);
  const Tensor p = pad_chw(x, 1, 2);
  EXPECT_EQ(p.dim(1), 5);
  EXPECT_EQ(p.dim(2), 8);
  EXPECT_EQ(p(0, 0, 0), 0.0f);
  EXPECT_EQ(p(1, 1, 2), x(1, 0, 0));
}

TEST(Im2col, PatchLayout) {
  const ConvShape shape = ConvShape::valid_conv(1, 1, 3, 3, 2, 2);
  Tensor x({1, 3, 3});
  for (int i = 0; i < 9; ++i) {
    x[i] = static_cast<float>(i);
  }
  const Tensor cols = im2col(x, shape);
  EXPECT_EQ(cols.dim(0), 4);   // C·R·S
  EXPECT_EQ(cols.dim(1), 4);   // OH·OW
  // Patch at output (0,0) is [0, 1, 3, 4] down the column.
  EXPECT_FLOAT_EQ(cols(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(cols(2, 0), 3.0f);
  EXPECT_FLOAT_EQ(cols(3, 0), 4.0f);
}

// Both im2col element types against a per-element oracle, bitwise: the
// walk's per-row valid-column range must reproduce the bounds-checked
// select for every stride, pad (including pads at least as wide as the
// image, which leave whole rows of padding), filter and width. A guard
// tail behind the patch matrix catches writes past its end. With a row
// range [ob, oe) the row-band walk (im2col_rows_into) must give exactly
// those output rows' columns.
template <typename T>
void expect_im2col_matches_oracle(const ConvShape& shape, T pad_value,
                                  std::int64_t ob = 0, std::int64_t oe = -1) {
  const bool band = oe >= 0;
  oe = band ? oe : shape.out_h();
  const std::int64_t oh = oe - ob;
  const std::int64_t ow = shape.out_w();
  const std::int64_t rows = shape.c * shape.r * shape.s;
  std::vector<T> x(static_cast<std::size_t>(shape.c * shape.h * shape.w));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<T>(1 + (i * 37) % 120);  // never the pad value
  }
  const T guard = static_cast<T>(123);
  constexpr std::int64_t kTail = 64;
  std::vector<T> cols(static_cast<std::size_t>(rows * oh * ow + kTail),
                      guard);
  if constexpr (std::is_same_v<T, float>) {
    if (band) {
      im2col_rows_into(x.data(), shape, ob, oe, cols.data());
    } else {
      im2col_into(x.data(), shape, cols.data());
    }
  } else if (band) {
    im2col_u8_rows_into(x.data(), shape, ob, oe, cols.data(), pad_value);
  } else {
    im2col_u8_into(x.data(), shape, cols.data(), pad_value);
  }
  for (std::int64_t row = 0; row < rows; ++row) {
    const std::int64_t c = row / (shape.r * shape.s);
    const std::int64_t r = (row / shape.s) % shape.r;
    const std::int64_t s = row % shape.s;
    for (std::int64_t o_h = 0; o_h < oh; ++o_h) {
      for (std::int64_t o_w = 0; o_w < ow; ++o_w) {
        const std::int64_t ih = (ob + o_h) * shape.stride_h - shape.pad_h + r;
        const std::int64_t iw = o_w * shape.stride_w - shape.pad_w + s;
        const T want =
            ih >= 0 && ih < shape.h && iw >= 0 && iw < shape.w
                ? x[static_cast<std::size_t>((c * shape.h + ih) * shape.w +
                                             iw)]
                : pad_value;
        ASSERT_EQ(cols[static_cast<std::size_t>((row * oh + o_h) * ow +
                                                o_w)],
                  want)
            << shape.to_string() << " row=" << row << " o_h=" << ob + o_h
            << " o_w=" << o_w;
      }
    }
  }
  for (std::int64_t i = 0; i < kTail; ++i) {
    ASSERT_EQ(cols[static_cast<std::size_t>(rows * oh * ow + i)], guard)
        << shape.to_string();
  }
}

TEST(Im2col, BothTypesMatchPerElementOracle) {
  int checked = 0;
  for (const std::int64_t stride : {1, 2, 3}) {
    for (const std::int64_t pad : {0, 1, 2, 3}) {
      for (const std::int64_t k : {1, 3, 7}) {
        for (const std::int64_t w : {1, 5, 16}) {
          ConvShape shape;
          shape.c = 2;
          shape.h = 7;
          shape.w = w;
          shape.r = k;
          shape.s = k;
          shape.pad_h = pad;
          shape.pad_w = pad;
          shape.stride_h = stride;
          shape.stride_w = stride;
          if (!shape.valid()) {
            continue;
          }
          expect_im2col_matches_oracle<float>(shape, 0.0f);
          expect_im2col_matches_oracle<std::uint8_t>(shape, 0);
          expect_im2col_matches_oracle<std::uint8_t>(shape, 127);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 93);  // 108 combinations less 15 invalid shapes
}

// Every small shape — every pad below the kernel, strides 1 and 2 — at 1
// and 3 threads. Tiny images under tall kernels leave a patch row only a
// few valid elements, or none, which is where the stride-1 same-width
// shifted copy has to clamp both of its row ranges. Each shape also runs
// three output-row bands: all but the first row, the top half, and one
// middle row.
TEST(Im2col, SmallShapeSweepMatchesOracleAtOneAndThreeThreads) {
  const int saved = num_threads();
  for (const int nt : {1, 3}) {
    set_num_threads(nt);
    int checked = 0;
    for (const std::int64_t c : {1, 3}) {
      for (const std::int64_t h : {1, 2, 5, 7, 8}) {
        for (const std::int64_t w : {1, 3, 7, 16}) {
          for (const std::int64_t r : {1, 2, 3, 5}) {
            for (const std::int64_t s : {1, 3, 4}) {
              for (std::int64_t pad_h = 0; pad_h < r; ++pad_h) {
                for (std::int64_t pad_w = 0; pad_w < s; ++pad_w) {
                  for (const std::int64_t stride : {1, 2}) {
                    ConvShape shape;
                    shape.c = c;
                    shape.h = h;
                    shape.w = w;
                    shape.r = r;
                    shape.s = s;
                    shape.pad_h = pad_h;
                    shape.pad_w = pad_w;
                    shape.stride_h = stride;
                    shape.stride_w = stride;
                    if (!shape.valid()) {
                      continue;
                    }
                    expect_im2col_matches_oracle<float>(shape, 0.0f);
                    expect_im2col_matches_oracle<std::uint8_t>(shape, 127);
                    const std::int64_t oh = shape.out_h();
                    const std::int64_t bands[3][2] = {
                        {std::min<std::int64_t>(1, oh - 1), oh},
                        {0, (oh + 1) / 2},
                        {oh / 2, oh / 2 + 1}};
                    for (const auto& b : bands) {
                      expect_im2col_matches_oracle<float>(shape, 0.0f, b[0],
                                                          b[1]);
                      expect_im2col_matches_oracle<std::uint8_t>(
                          shape, 127, b[0], b[1]);
                    }
                    ++checked;
                  }
                }
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(checked, 5376) << "threads=" << nt;
  }
  set_num_threads(saved);
}

struct ConvCase {
  ConvShape shape;
  const char* label;
};

class ConvAgreement : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvAgreement, Im2colMatchesReference) {
  const ConvShape shape = GetParam().shape;
  Rng rng(101);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const Tensor ref = conv2d_reference(x, k, shape);
  const Tensor fast =
      compile_conv_plan({.shape = shape, .algo = ConvAlgo::kIm2col}, k)->run(x);
  EXPECT_LT(Tensor::rel_error(fast, ref), 1e-4) << GetParam().label;
}

TEST_P(ConvAgreement, WinogradMatchesReferenceWhenSupported) {
  const ConvShape shape = GetParam().shape;
  if (!conv_algo_supports(ConvAlgo::kWinograd, shape)) {
    GTEST_SKIP() << "unsupported shape for winograd";
  }
  Rng rng(103);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const Tensor ref = conv2d_reference(x, k, shape);
  const Tensor fast =
      compile_conv_plan({.shape = shape, .algo = ConvAlgo::kWinograd}, k)
          ->run(x);
  EXPECT_LT(Tensor::rel_error(fast, ref), 1e-3) << GetParam().label;
}

TEST_P(ConvAgreement, FftMatchesReferenceWhenSupported) {
  const ConvShape shape = GetParam().shape;
  if (!conv_algo_supports(ConvAlgo::kFft, shape)) {
    GTEST_SKIP() << "unsupported shape for fft";
  }
  Rng rng(105);
  const Tensor x = Tensor::random_uniform({shape.c, shape.h, shape.w}, rng);
  const Tensor k =
      Tensor::random_uniform({shape.c, shape.n, shape.r, shape.s}, rng);
  const Tensor ref = conv2d_reference(x, k, shape);
  const Tensor fast =
      compile_conv_plan({.shape = shape, .algo = ConvAlgo::kFft}, k)->run(x);
  EXPECT_LT(Tensor::rel_error(fast, ref), 1e-4) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvAgreement,
    ::testing::Values(
        ConvCase{ConvShape::valid_conv(3, 4, 8, 8, 3, 3), "valid3x3"},
        ConvCase{ConvShape::same(4, 6, 9, 3), "same3x3_odd"},
        ConvCase{ConvShape::same(8, 8, 12, 3), "same3x3"},
        ConvCase{ConvShape::same(2, 3, 10, 5), "same5x5"},
        ConvCase{ConvShape::same(3, 5, 12, 1), "pointwise"},
        ConvCase{ConvShape::same(4, 4, 12, 3, 2), "strided3x3"},
        ConvCase{ConvShape::valid_conv(1, 1, 5, 7, 2, 4), "asym_filter"},
        ConvCase{ConvShape::same(5, 2, 16, 7), "same7x7"}),
    [](const auto& info) { return info.param.label; });

TEST(Pointwise, MatchesReference1x1Conv) {
  Rng rng(107);
  const ConvShape shape = ConvShape::same(6, 4, 5, 1);
  const Tensor x = Tensor::random_uniform({6, 5, 5}, rng);
  Tensor u({6, 4});
  Tensor k({6, 4, 1, 1});
  for (std::int64_t c = 0; c < 6; ++c) {
    for (std::int64_t n = 0; n < 4; ++n) {
      const float v = static_cast<float>(rng.uniform(-1, 1));
      u(c, n) = v;
      k(c, n, 0, 0) = v;
    }
  }
  const Tensor via_pw = pointwise_conv(x, u);
  const Tensor via_ref = conv2d_reference(x, k, shape);
  EXPECT_LT(Tensor::rel_error(via_pw, via_ref), 1e-5);
}

TEST(Pointwise, ShapeChecks) {
  Tensor x({3, 4, 4});
  Tensor u({4, 2});
  EXPECT_THROW(pointwise_conv(x, u), Error);
}

TEST(TuckerConv, FullRankMatchesOriginalConvolution) {
  Rng rng(109);
  const ConvShape shape = ConvShape::same(8, 6, 10, 3);
  const Tensor x = Tensor::random_uniform({8, 10, 10}, rng);
  const Tensor k = Tensor::random_uniform({8, 6, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {8, 6});
  const Tensor ref = conv2d_reference(x, k, shape);
  const Tensor out = tucker_conv(x, f, shape);
  EXPECT_LT(Tensor::rel_error(out, ref), 1e-3);
}

TEST(TuckerConv, EquivalentToConvWithReconstructedKernel) {
  // At *any* rank the pipeline must equal convolution with the reconstructed
  // (approximate) kernel — Eqs. (2)–(4) vs Eq. (1).
  Rng rng(111);
  const ConvShape shape = ConvShape::same(8, 8, 9, 3);
  const Tensor x = Tensor::random_uniform({8, 9, 9}, rng);
  const Tensor k = Tensor::random_uniform({8, 8, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {3, 4});
  const Tensor approx_kernel = tucker_reconstruct(f);
  const Tensor via_pipeline = tucker_conv(x, f, shape);
  const Tensor via_kernel = conv2d_reference(x, approx_kernel, shape);
  EXPECT_LT(Tensor::rel_error(via_pipeline, via_kernel), 1e-3);
}

TEST(TuckerConv, CoreAlgoChoicesAgree) {
  Rng rng(113);
  const ConvShape shape = ConvShape::same(6, 6, 8, 3);
  const Tensor x = Tensor::random_uniform({6, 8, 8}, rng);
  const Tensor k = Tensor::random_uniform({6, 6, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {4, 4});
  const auto staged = [&](ConvAlgo core) {
    return compile_tucker_plan({.shape = shape,
                                .exec = TuckerExec::kStaged,
                                .core_algo = core},
                               f)
        ->run(x);
  };
  const Tensor a = tucker_conv(x, f, shape);
  const Tensor b = staged(ConvAlgo::kIm2col);
  const Tensor c = staged(ConvAlgo::kWinograd);
  const Tensor d = staged(ConvAlgo::kFft);
  EXPECT_LT(Tensor::rel_error(b, a), 1e-4);
  EXPECT_LT(Tensor::rel_error(c, a), 1e-3);
  EXPECT_LT(Tensor::rel_error(d, a), 1e-4);
}

TEST(TuckerConv, StridedCore) {
  Rng rng(115);
  const ConvShape shape = ConvShape::same(8, 8, 12, 3, 2);
  const Tensor x = Tensor::random_uniform({8, 12, 12}, rng);
  const Tensor k = Tensor::random_uniform({8, 8, 3, 3}, rng);
  const TuckerFactors f = tucker_decompose(k, {8, 8});
  const Tensor ref = conv2d_reference(x, k, shape);
  const Tensor out = tucker_conv(x, f, shape);
  EXPECT_LT(Tensor::rel_error(out, ref), 1e-3);
}

TEST(ConvDispatch, UnsupportedThrows) {
  const ConvShape strided5 = ConvShape::same(2, 2, 8, 5, 2);
  Rng rng(117);
  const Tensor x = Tensor::random_uniform({2, 8, 8}, rng);
  const Tensor k = Tensor::random_uniform({2, 2, 5, 5}, rng);
  for (const ConvAlgo algo : {ConvAlgo::kWinograd, ConvAlgo::kFft}) {
    EXPECT_THROW(compile_conv_plan({.shape = strided5, .algo = algo}, k),
                 Error)
        << conv_algo_name(algo);
  }
  EXPECT_NO_THROW(
      compile_conv_plan({.shape = strided5, .algo = ConvAlgo::kIm2col}, k)
          ->run(x));
}

TEST(ConvDispatch, AlgoNames) {
  EXPECT_STREQ(conv_algo_name(ConvAlgo::kIm2col), "im2col-gemm");
  EXPECT_STREQ(conv_algo_name(ConvAlgo::kWinograd), "winograd");
}

}  // namespace
}  // namespace tdc
