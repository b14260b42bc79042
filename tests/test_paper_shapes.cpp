// Integration tests on the paper's own evaluation shapes: the functional
// kernels (TDC scheme, TVM scheme, all baselines) executed at the exact
// small core-convolution geometries of Figures 6–7, each at its
// production-selected tiling, all checked against the reference oracle.
#include <gtest/gtest.h>

#include "conv/conv.h"
#include "core/tdc_kernel.h"
#include "core/tdc_model.h"
#include "core/tvm_scheme.h"
#include "exec/conv_plan.h"
#include "tensor/layout.h"

namespace tdc {
namespace {

// The 7×7 and 14×14 members of the Figure-6 shape list (the larger planes
// are covered by the parameterized sweeps at reduced size; running them
// here would dominate the suite's runtime for no extra coverage).
std::vector<ConvShape> small_paper_shapes() {
  return {ConvShape::same(32, 32, 7, 3),  ConvShape::same(64, 32, 7, 3),
          ConvShape::same(96, 64, 7, 3),  ConvShape::same(192, 160, 7, 3),
          ConvShape::same(32, 32, 14, 3), ConvShape::same(64, 32, 14, 3),
          ConvShape::same(128, 96, 14, 3)};
}

class PaperShapeKernels : public ::testing::TestWithParam<ConvShape> {
 protected:
  void SetUp() override {
    const ConvShape& s = GetParam();
    Rng rng(4242);
    x_ = Tensor::random_uniform({s.c, s.h, s.w}, rng);
    k_ = Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng);
    reference_ = conv2d_reference(x_, k_, s);
  }
  Tensor x_, k_, reference_;
};

TEST_P(PaperShapeKernels, TdcKernelAtModelTiling) {
  const ConvShape& s = GetParam();
  const TdcTiling t = select_tiling_model(make_a100(), s);
  const Tensor out = tdc_core_conv(x_, cnrs_to_crsn(k_), s, t);
  EXPECT_LT(Tensor::rel_error(out, reference_), 1e-4) << t.to_string();
}

TEST_P(PaperShapeKernels, TdcKernelAtOracleTiling) {
  const ConvShape& s = GetParam();
  const TdcTiling t = select_tiling_oracle(make_rtx2080ti(), s);
  const Tensor out = tdc_core_conv(x_, cnrs_to_crsn(k_), s, t);
  EXPECT_LT(Tensor::rel_error(out, reference_), 1e-4) << t.to_string();
}

TEST_P(PaperShapeKernels, TvmSchemeAtTunedTiling) {
  const ConvShape& s = GetParam();
  const TvmTiling t = select_tvm_tiling(make_a100(), s);
  const Tensor out = tvm_scheme_conv(x_, k_, s, t);
  EXPECT_LT(Tensor::rel_error(out, reference_), 1e-4) << t.to_string();
}

TEST_P(PaperShapeKernels, LibraryBaselines) {
  const ConvShape& s = GetParam();
  const auto run = [&](ConvAlgo algo) {
    return compile_conv_plan({.shape = s, .algo = algo}, k_)->run(x_);
  };
  EXPECT_LT(Tensor::rel_error(run(ConvAlgo::kIm2col), reference_), 1e-4);
  EXPECT_LT(Tensor::rel_error(run(ConvAlgo::kWinograd), reference_), 1e-3);
  EXPECT_LT(Tensor::rel_error(run(ConvAlgo::kFft), reference_), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Figure6Small, PaperShapeKernels,
                         ::testing::ValuesIn(small_paper_shapes()),
                         [](const auto& info) {
                           const ConvShape& s = info.param;
                           return "c" + std::to_string(s.c) + "n" +
                                  std::to_string(s.n) + "hw" +
                                  std::to_string(s.h);
                         });

}  // namespace
}  // namespace tdc
