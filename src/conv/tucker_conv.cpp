#include "conv/tucker_conv.h"

#include "common/check.h"
#include "conv/pointwise.h"
#include "linalg/gemm.h"

namespace tdc {

Tensor tucker_conv_stage1(const Tensor& x, const TuckerFactors& factors) {
  return pointwise_conv(x, factors.u1);
}

Tensor tucker_conv_stage3(const Tensor& z2, const TuckerFactors& factors) {
  // U2 is [N, D2]; mapping D2 → N needs the [D2, N] transpose.
  return pointwise_conv(z2, transpose2d(factors.u2));
}

Tensor tucker_conv(const Tensor& x, const TuckerFactors& factors,
                   const ConvShape& shape) {
  TDC_CHECK_MSG(x.rank() == 3, "tucker_conv expects [C,H,W]");
  TDC_CHECK_MSG(x.dim(0) == shape.c, "input channel mismatch");
  TDC_CHECK_MSG(factors.u1.dim(0) == shape.c, "U1 row count != C");
  TDC_CHECK_MSG(factors.u2.dim(0) == shape.n, "U2 row count != N");

  const TuckerRanks ranks = factors.ranks();
  const ConvShape core = core_conv_shape(shape, ranks);

  const Tensor z1 = tucker_conv_stage1(x, factors);
  const Tensor z2 = conv2d_reference(z1, factors.core, core);
  return tucker_conv_stage3(z2, factors);
}

}  // namespace tdc
