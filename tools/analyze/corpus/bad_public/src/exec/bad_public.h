// Corpus: public headers must not include internal *_impl.h seams.
#pragma once

#include "exec/plan_impl.h"                                // expect-analyze: impl-header-in-public
#include "exec/op_plan.h"

namespace tdc {
int public_surface();
}  // namespace tdc
