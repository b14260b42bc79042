#include "exec/graph_plan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <new>
#include <thread>

#include "common/alloc_guard.h"
#include "common/annotations.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/epilogue.h"
#include "exec/host_cost.h"
#include "exec/op_plans.h"
#include "exec/plan_cache.h"
#include "exec/plan_impl.h"
#include "exec/quantize.h"
#include "exec/workspace_guard.h"
#include "tucker/tucker.h"

namespace tdc {

namespace {

// Graph-walk pointer fan-in cap: input pointers are gathered on the stack so
// the steady state stays allocation-free. Far above any real concat arity.
constexpr std::int64_t kMaxNodeInputs = 64;

OpShape conv_input_shape(const ConvShape& s) {
  return OpShape{s.c, s.h, s.w};
}

PoolDescriptor pool_descriptor(const LayerSpec& layer, const OpShape& in) {
  TDC_CHECK_MSG(layer.pool.window >= 1,
                "pool layer '" + layer.name + "' needs a window size");
  PoolDescriptor d;
  d.in = in;
  d.window_h = layer.pool.window;
  d.window_w = layer.pool.window;
  d.stride_h = layer.pool.stride;
  d.stride_w = layer.pool.stride;
  d.pad_h = layer.pool.pad;
  d.pad_w = layer.pool.pad;
  d.kind = layer.pool.max_pool ? PoolKind::kMax : PoolKind::kAvg;
  return d;
}

/// Resolved producer edges of layer i (the linear default when the spec
/// lists none; kModelInput = -1 for layer 0).
std::vector<std::int64_t> resolve_edges(const ModelSpec& model,
                                        std::int64_t i) {
  const LayerSpec& layer = model.layers[static_cast<std::size_t>(i)];
  if (layer.inputs.empty()) {
    return {i - 1};  // -1 is the model input
  }
  for (const std::int64_t j : layer.inputs) {
    TDC_CHECK_MSG(j >= 0 && j < i,
                  "layer '" + layer.name +
                      "' must reference earlier layers; got input " +
                      std::to_string(j));
  }
  TDC_CHECK_MSG(static_cast<std::int64_t>(layer.inputs.size()) <=
                    kMaxNodeInputs,
                "layer '" + layer.name + "' exceeds the fan-in cap");
  return layer.inputs;
}

/// Graph-wide shape propagation and validation — the single source of truth
/// for every per-kind geometry rule (chaining, concat planes, add shape
/// agreement, FC feature counts, fan-in arity). Both random_model_weights
/// (which needs channel counts before any weights exist) and
/// InferenceSession::compile consume it; plan compilation re-derives nothing.
std::vector<OpShape> infer_output_shapes(const ModelSpec& model) {
  TDC_CHECK_MSG(!model.layers.empty(), "empty model");
  TDC_CHECK_MSG(model.layers.front().kind == LayerKind::kConv,
                "the first layer must be a convolution (it defines the model "
                "input shape)");
  const OpShape model_in = conv_input_shape(model.layers.front().conv);
  std::vector<OpShape> out;
  out.reserve(model.layers.size());
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerSpec& layer = model.layers[i];
    const std::vector<std::int64_t> edges =
        resolve_edges(model, static_cast<std::int64_t>(i));
    auto in_shape = [&](std::size_t k) -> const OpShape& {
      const std::int64_t j = edges[k];
      return j < 0 ? model_in : out[static_cast<std::size_t>(j)];
    };
    const bool multi_input =
        layer.kind == LayerKind::kElementwise &&
        (layer.elt == EltOp::kAdd || layer.elt == EltOp::kAddRelu ||
         layer.elt == EltOp::kConcat);
    TDC_CHECK_MSG(multi_input || edges.size() == 1,
                  "layer '" + layer.name + "' takes one input, got " +
                      std::to_string(edges.size()));
    switch (layer.kind) {
      case LayerKind::kConv:
        TDC_CHECK_MSG(in_shape(0) == conv_input_shape(layer.conv),
                      "layer '" + layer.name + "' does not chain: input " +
                          in_shape(0).to_string() + " vs " +
                          layer.conv.to_string());
        out.push_back(OpShape{layer.conv.n, layer.conv.out_h(),
                              layer.conv.out_w()});
        break;
      case LayerKind::kPool: {
        const PoolDescriptor d = pool_descriptor(layer, in_shape(0));
        TDC_CHECK_MSG(d.valid(), "layer '" + layer.name +
                                     "' has invalid pooling geometry");
        out.push_back(OpShape{d.in.c, d.out_h(), d.out_w()});
        break;
      }
      case LayerKind::kGlobalPool:
        out.push_back(OpShape{in_shape(0).c, 1, 1});
        break;
      case LayerKind::kElementwise:
        if (layer.elt == EltOp::kConcat) {
          TDC_CHECK_MSG(edges.size() >= 2, "layer '" + layer.name +
                                               "' concat needs >= 2 inputs");
          OpShape s = in_shape(0);
          for (std::size_t k = 1; k < edges.size(); ++k) {
            TDC_CHECK_MSG(in_shape(k).h == s.h && in_shape(k).w == s.w,
                          "layer '" + layer.name +
                              "' concat inputs must share the plane");
            s.c += in_shape(k).c;
          }
          out.push_back(s);
        } else if (layer.elt == EltOp::kAdd || layer.elt == EltOp::kAddRelu) {
          TDC_CHECK_MSG(edges.size() >= 2, "layer '" + layer.name +
                                               "' add needs >= 2 inputs");
          for (std::size_t k = 1; k < edges.size(); ++k) {
            TDC_CHECK_MSG(in_shape(k) == in_shape(0),
                          "layer '" + layer.name +
                              "' add inputs must share one shape");
          }
          out.push_back(in_shape(0));
        } else {
          out.push_back(in_shape(0));
        }
        break;
      case LayerKind::kFullyConnected:
        TDC_CHECK_MSG(in_shape(0).floats() == layer.fc_in,
                      "layer '" + layer.name + "' expects " +
                          std::to_string(layer.fc_in) + " input features, " +
                          "producer yields " +
                          std::to_string(in_shape(0).floats()));
        out.push_back(OpShape{layer.fc_out, 1, 1});
        break;
    }
  }
  return out;
}

/// Precision selection: layer i's calibration when it compiles int8, else
/// null. A calibrated layer goes int8 when TDC_INT8 forces it, or when the
/// request's cost provider prices the quantized engine cheaper — but never
/// over a pinned transform-domain algorithm (the quantized engine is
/// im2col-only).
const LayerQuant* int8_layer_quant(const SessionOptions& options,
                                   std::size_t i, const PlanRequest& req) {
  if (options.quant == nullptr || i >= options.quant->layers.size() ||
      !options.quant->layers[i].quantize) {
    return nullptr;
  }
  const ConvAlgo requested = req.ranks ? req.core_algo : req.algo;
  if (requested != ConvAlgo::kAuto && requested != ConvAlgo::kIm2col) {
    return nullptr;
  }
  const int mode = int8_mode();
  const bool int8 =
      mode == 2 ||
      (mode == 1 && req.cost->resolve_precision(req.device, req.shape) ==
                        Precision::kInt8);
  return int8 ? &options.quant->layers[i] : nullptr;
}

}  // namespace

std::vector<LayerWeights> random_model_weights(const ModelSpec& model,
                                               std::uint64_t seed) {
  const std::vector<OpShape> shapes = infer_output_shapes(model);
  Rng rng(seed);
  std::vector<LayerWeights> weights(model.layers.size());
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerSpec& layer = model.layers[i];
    LayerWeights& w = weights[i];
    switch (layer.kind) {
      case LayerKind::kConv: {
        const ConvShape& s = layer.conv;
        const float a = static_cast<float>(
            std::sqrt(6.0 / static_cast<double>(s.c * s.r * s.s)));
        w.conv_kernel =
            Tensor::random_uniform({s.c, s.n, s.r, s.s}, rng, -a, a);
        break;
      }
      case LayerKind::kElementwise:
        if (layer.elt == EltOp::kBatchNorm) {
          const std::int64_t c = shapes[i].c;
          w.bn_scale = Tensor::random_uniform({c}, rng, 0.7f, 1.3f);
          w.bn_shift = Tensor::random_uniform({c}, rng, -0.1f, 0.1f);
        }
        break;
      case LayerKind::kFullyConnected: {
        const float a = static_cast<float>(
            std::sqrt(6.0 / static_cast<double>(layer.fc_in)));
        w.fc_weight =
            Tensor::random_uniform({layer.fc_out, layer.fc_in}, rng, -a, a);
        w.fc_bias = Tensor::random_uniform({layer.fc_out}, rng, -0.05f, 0.05f);
        break;
      }
      default:
        break;
    }
  }
  return weights;
}

std::vector<const LayerDecision*> align_decisions(
    const ModelSpec& model, const std::vector<LayerDecision>& decisions) {
  std::vector<const LayerDecision*> dec_for(model.layers.size(), nullptr);
  if (decisions.empty()) {
    return dec_for;
  }
  std::vector<std::size_t> conv_idx;
  std::vector<std::size_t> decomposable_idx;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerSpec& l = model.layers[i];
    if (l.kind != LayerKind::kConv) {
      continue;
    }
    conv_idx.push_back(i);
    if (l.conv.r > 1 || l.conv.s > 1) {
      decomposable_idx.push_back(i);
    }
  }
  const std::vector<std::size_t>* target = nullptr;
  if (decisions.size() == conv_idx.size()) {
    target = &conv_idx;
  } else if (decisions.size() == decomposable_idx.size()) {
    target = &decomposable_idx;
  }
  TDC_CHECK_MSG(target != nullptr,
                "decision list must cover every convolution (" +
                    std::to_string(conv_idx.size()) +
                    ") or every decomposable convolution (" +
                    std::to_string(decomposable_idx.size()) + "); got " +
                    std::to_string(decisions.size()));
  for (std::size_t k = 0; k < decisions.size(); ++k) {
    const LayerSpec& l = model.layers[(*target)[k]];
    TDC_CHECK_MSG(decisions[k].shape == l.conv,
                  "decision " + std::to_string(k) +
                      " does not match layer '" + l.name + "': " +
                      decisions[k].shape.to_string() + " vs " +
                      l.conv.to_string());
    dec_for[(*target)[k]] = &decisions[k];
  }
  return dec_for;
}

InferenceSession InferenceSession::compile(
    const DeviceSpec& device, const ModelSpec& model,
    const std::vector<LayerWeights>& weights,
    const std::vector<LayerDecision>& decisions,
    const SessionOptions& options) {
  // Compilation allocates heavily (packed weights, Tucker factors, plan
  // tables); a failed allocation surfaces as kResourceExhausted, and a throw
  // anywhere in the body leaves the shared PlanCache consistent — entries
  // already inserted are complete plans, the in-flight one is discarded.
  return map_resource_failure("InferenceSession::compile",
                              [&] { return compile_impl(device, model, weights,
                                                        decisions, options); });
}

InferenceSession InferenceSession::compile_impl(
    const DeviceSpec& device, const ModelSpec& model,
    const std::vector<LayerWeights>& weights,
    const std::vector<LayerDecision>& decisions,
    const SessionOptions& options) {
  TDC_CHECK_MSG(!model.layers.empty(), "empty model");
  TDC_CHECK_MSG(weights.size() == model.layers.size(),
                "need one LayerWeights entry per model layer");
  TDC_CHECK_MSG(model.layers.front().kind == LayerKind::kConv,
                "the first layer must be a convolution (it defines the model "
                "input shape)");

  const std::vector<const LayerDecision*> dec_for =
      align_decisions(model, decisions);

  // One validation pass over the whole graph (edges, arity, chaining,
  // concat/add/FC geometry); plan compilation below only adds the
  // weight-tensor checks.
  const std::vector<OpShape> shapes = infer_output_shapes(model);

  // Sessions execute on the CPU engine, so kAuto defaults to the host cost
  // provider rather than the simulated-GPU pricing of the bare descriptor
  // API — that is what makes kAuto deployable without the historical
  // dense_algo = kIm2col pin.
  const CostProvider* cost = options.cost_provider != nullptr
                                 ? options.cost_provider
                                 : &host_cost_provider();

  // Every convolution's request first, with its kernel hashed once for the
  // cache key and the factors check alike, and the plan the cache already
  // holds for it. A cache hit is final here: the layer loop takes that plan
  // instead of looking it up again.
  const std::size_t n_layers = model.layers.size();
  std::vector<PlanRequest> conv_reqs(n_layers);
  std::vector<std::shared_ptr<const ConvPlan>> cached(n_layers);
  std::vector<std::size_t> to_decompose;
  for (std::size_t i = 0; i < n_layers; ++i) {
    const LayerSpec& layer = model.layers[i];
    if (layer.kind != LayerKind::kConv) {
      continue;
    }
    const Tensor& kernel = weights[i].conv_kernel;
    TDC_CHECK_MSG(kernel.rank() == 4 && kernel.dim(0) == layer.conv.c &&
                      kernel.dim(1) == layer.conv.n &&
                      kernel.dim(2) == layer.conv.r &&
                      kernel.dim(3) == layer.conv.s,
                  "layer '" + layer.name +
                      "' needs a CNRS kernel matching " +
                      layer.conv.to_string());
    const LayerDecision* dec = dec_for[i];
    PlanRequest& req = conv_reqs[i];
    req.shape = layer.conv;
    req.kernel = &kernel;
    req.kernel_fingerprint = tensor_fingerprint(kernel);
    req.device = device;
    req.cost = cost;
    req.algo = options.dense_algo;
    req.exec = options.tucker_exec;
    req.core_algo = options.tucker_core_algo;
    if (dec != nullptr && dec->decomposed) {
      req.ranks = dec->ranks;
    }
    req.quant = int8_layer_quant(options, i, req);
    if (options.quant != nullptr && i < options.quant->layers.size()) {
      // Calibration's decomposition of this layer, for either precision.
      const LayerQuant& q = options.quant->layers[i];
      req.factors = q.factors.get();
      req.factors_kernel = q.factors_kernel;
    }
    if (options.use_plan_cache) {
      cached[i] = PlanCache::instance().find(req);
    }
    if (cached[i] == nullptr && req.ranks && !req.matching_factors()) {
      to_decompose.push_back(i);
    }
  }

  // The Tucker layers left without a plan or factors decompose together,
  // largest first, across the arena's workers. Each layer's factors are
  // dropped as soon as its plan has packed them.
  std::vector<TuckerFactors> decomposed(n_layers);
  {
    std::vector<const Tensor*> kernels;
    std::vector<TuckerRanks> ranks;
    for (const std::size_t i : to_decompose) {
      kernels.push_back(conv_reqs[i].kernel);
      ranks.push_back(*conv_reqs[i].ranks);
    }
    std::vector<TuckerFactors> all = tucker_decompose_all(kernels, ranks);
    for (std::size_t k = 0; k < to_decompose.size(); ++k) {
      const std::size_t i = to_decompose[k];
      decomposed[i] = std::move(all[k]);
      conv_reqs[i].factors = &decomposed[i];
      conv_reqs[i].factors_kernel = conv_reqs[i].kernel_fingerprint;
    }
  }

  InferenceSession s;
  s.input_shape_ = conv_input_shape(model.layers.front().conv);

  for (std::size_t i = 0; i < n_layers; ++i) {
    deadline_poll("session compile layer boundary");
    if (fault_injected("exec.compile_alloc")) {
      throw std::bad_alloc();  // a layer's plan allocation failed
    }
    const LayerSpec& layer = model.layers[i];
    Node node;
    node.name = layer.name;
    node.inputs = resolve_edges(model, static_cast<std::int64_t>(i));
    std::vector<OpShape> ins;
    ins.reserve(node.inputs.size());
    for (const std::int64_t j : node.inputs) {
      ins.push_back(j == kModelInput
                        ? s.input_shape_
                        : shapes[static_cast<std::size_t>(j)]);
    }

    switch (layer.kind) {
      case LayerKind::kConv:
        if (cached[i] != nullptr) {
          node.plan = std::move(cached[i]);
        } else if (options.use_plan_cache) {
          node.plan = PlanCache::instance().get_or_compile(conv_reqs[i]);
        } else {
          node.plan = compile_plan(conv_reqs[i]);
        }
        decomposed[i] = TuckerFactors{};
        break;
      case LayerKind::kPool:
        node.plan = compile_pool_plan(pool_descriptor(layer, ins[0]));
        break;
      case LayerKind::kGlobalPool:
        node.plan = compile_global_pool_plan(
            ins[0], layer.pool.max_pool ? PoolKind::kMax : PoolKind::kAvg);
        break;
      case LayerKind::kElementwise:
        switch (layer.elt) {
          case EltOp::kRelu:
            node.plan = compile_relu_plan(ins[0]);
            break;
          case EltOp::kBatchNorm:
            TDC_CHECK_MSG(!weights[i].bn_scale.empty() &&
                              !weights[i].bn_shift.empty(),
                          "layer '" + layer.name +
                              "' needs folded bn_scale/bn_shift weights");
            node.plan = compile_batchnorm_plan(ins[0], weights[i].bn_scale,
                                               weights[i].bn_shift);
            break;
          case EltOp::kAdd:
          case EltOp::kAddRelu:
            node.plan = compile_add_plan(
                ins[0], static_cast<std::int64_t>(ins.size()),
                layer.elt == EltOp::kAddRelu);
            break;
          case EltOp::kConcat:
            node.plan = compile_concat_plan(ins);
            break;
        }
        break;
      case LayerKind::kFullyConnected: {
        const Tensor& w = weights[i].fc_weight;
        TDC_CHECK_MSG(w.rank() == 2 && w.dim(0) == layer.fc_out &&
                          w.dim(1) == layer.fc_in,
                      "layer '" + layer.name + "' needs an [out, in] weight");
        node.plan = compile_fc_plan(w, weights[i].fc_bias);
        break;
      }
    }

    TDC_CHECK_MSG(node.plan->output_shape() == shapes[i],
                  "layer '" + layer.name +
                      "' plan geometry diverged from shape propagation");
    s.nodes_.push_back(std::move(node));
  }
  s.output_shape_ = s.nodes_.back().plan->output_shape();
  s.plan_steps(model, weights);
  s.plan_arena();
  // One plan workspace serves every step in turn: the largest a step's run
  // touches, a pooled step's band slots rather than its op's full scratch.
  for (const Step& st : s.steps_) {
    const std::int64_t bytes =
        st.conv != nullptr
            ? st.conv->epilogue_workspace_bytes(s.epilogue(st, nullptr))
            : s.nodes_[static_cast<std::size_t>(st.head)]
                  .plan->workspace_bytes();
    s.plan_ws_floats_ = std::max(
        s.plan_ws_floats_, bytes / static_cast<std::int64_t>(sizeof(float)));
  }
  return s;
}

void InferenceSession::plan_steps(const ModelSpec& model,
                                  const std::vector<LayerWeights>& weights) {
  const std::int64_t n = num_ops();
  // Consumer edges of every op; an op feeding one consumer twice counts
  // twice, so it never has an "only" consumer.
  std::vector<std::int64_t> consumer_count(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> consumer(static_cast<std::size_t>(n), -1);
  for (std::int64_t i = 0; i < n; ++i) {
    for (const std::int64_t j : nodes_[static_cast<std::size_t>(i)].inputs) {
      if (j != kModelInput) {
        ++consumer_count[static_cast<std::size_t>(j)];
        consumer[static_cast<std::size_t>(j)] = i;
      }
    }
  }
  const auto only_consumer = [&](std::int64_t i) {
    return consumer_count[static_cast<std::size_t>(i)] == 1
               ? consumer[static_cast<std::size_t>(i)]
               : std::int64_t{-1};
  };
  const auto is_elt = [&](std::int64_t i, EltOp op) {
    const LayerSpec& l = model.layers[static_cast<std::size_t>(i)];
    return l.kind == LayerKind::kElementwise && l.elt == op;
  };

  // Steps in order of their first op. step_of[i] is the step whose output
  // is op i's, set once that step exists (-1 for ops inside a fused step).
  std::vector<std::int64_t> step_of(static_cast<std::size_t>(n), -1);
  std::vector<bool> absorbed(static_cast<std::size_t>(n), false);
  for (std::int64_t i = 0; i < n; ++i) {
    if (absorbed[static_cast<std::size_t>(i)]) {
      continue;
    }
    Step st;
    st.head = i;
    st.out_op = i;
    const auto* conv = dynamic_cast<const ConvPlan*>(
        nodes_[static_cast<std::size_t>(i)].plan.get());
    const std::int64_t bn = only_consumer(i);
    if (conv != nullptr && bn >= 0 && is_elt(bn, EltOp::kBatchNorm)) {
      // Each op the step takes is absorbed, and the last one's output is
      // the step's.
      const auto take = [&](std::int64_t op) {
        absorbed[static_cast<std::size_t>(op)] = true;
        st.out_op = op;
      };
      st.conv = conv;
      st.scale = weights[static_cast<std::size_t>(bn)].bn_scale;
      st.shift = weights[static_cast<std::size_t>(bn)].bn_shift;
      take(bn);
      const std::int64_t next = only_consumer(bn);
      if (next >= 0 && is_elt(next, EltOp::kRelu)) {
        st.relu = true;
        take(next);
      } else if (next >= 0 &&
                 (is_elt(next, EltOp::kAdd) || is_elt(next, EltOp::kAddRelu)) &&
                 nodes_[static_cast<std::size_t>(next)].inputs.size() == 2) {
        const std::span<const std::int64_t> in = op_inputs(next);
        const std::int64_t other = in[0] == bn ? in[1] : in[0];
        // The other operand must already be an earlier step's output.
        if (other == kModelInput ||
            step_of[static_cast<std::size_t>(other)] >= 0) {
          st.residual = other == kModelInput
                            ? kModelInput
                            : step_of[static_cast<std::size_t>(other)];
          st.relu = is_elt(next, EltOp::kAddRelu);
          take(next);
        }
      }
      // A max-pool that only the BN (or its ReLU) feeds runs in the same
      // step when the plan computes pooled row bands.
      const std::int64_t pool = only_consumer(st.out_op);
      if (st.residual == kNoResidual && pool >= 0) {
        const LayerSpec& l = model.layers[static_cast<std::size_t>(pool)];
        if (l.kind == LayerKind::kPool && l.pool.max_pool) {
          const PoolDescriptor desc = pool_descriptor(l, conv->output_shape());
          if (conv->pools(desc)) {
            st.pool = desc;
            take(pool);
          }
        }
      }
    }
    for (const std::int64_t j : op_inputs(i)) {
      TDC_CHECK_INTERNAL(j == kModelInput ||
                             step_of[static_cast<std::size_t>(j)] >= 0,
                         "op input produced inside a fused step");
      st.inputs.push_back(j == kModelInput
                              ? kModelInput
                              : step_of[static_cast<std::size_t>(j)]);
    }
    step_of[static_cast<std::size_t>(st.out_op)] = num_steps();
    steps_.push_back(std::move(st));
  }

  // The step producing the model output writes the caller's y, so it runs
  // last. Nothing consumes it, so moving it there (past steps of dead-end
  // branches) keeps the order topological.
  const std::int64_t f = step_of[static_cast<std::size_t>(n - 1)];
  const std::int64_t last = num_steps() - 1;
  if (f != last) {
    std::rotate(steps_.begin() + f, steps_.begin() + f + 1, steps_.end());
    const auto remap = [&](std::int64_t& id) {
      if (id > f) {
        --id;
      }
    };
    for (Step& st : steps_) {
      std::for_each(st.inputs.begin(), st.inputs.end(), remap);
      remap(st.residual);
    }
  }
}

void InferenceSession::plan_arena() {
  // Liveness-planned activation arena: step i's output occupies a block of
  // the arena for exactly [i, last consumer]; first-fit placement over the
  // blocks still live keeps skips and branches resident without the arena
  // growing to the sum of all activations. The final step writes the
  // caller's output directly. With the workspace guard on (frozen here for
  // the session's lifetime), every block is padded with leading/trailing
  // canary bands that run_graph fills and checks around each step.
  guard_bands_ = workspace_guard_enabled();
  const std::int64_t band = guard_bands_ ? detail::kWsGuardBandFloats : 0;
  const std::int64_t n = num_steps();
  std::vector<std::int64_t> last_use(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const Step& st = steps_[static_cast<std::size_t>(i)];
    last_use[static_cast<std::size_t>(i)] = i;
    for (const std::int64_t j : st.inputs) {
      if (j != kModelInput) {
        last_use[static_cast<std::size_t>(j)] = i;
      }
    }
    if (st.residual >= 0) {
      last_use[static_cast<std::size_t>(st.residual)] = i;
    }
  }
  struct Block {
    std::int64_t offset;
    std::int64_t floats;
    std::int64_t last_use;
  };
  std::vector<Block> live;  // sorted by offset
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    std::erase_if(live, [&](const Block& b) { return b.last_use < i; });
    Step& st = steps_[static_cast<std::size_t>(i)];
    const std::int64_t size =
        nodes_[static_cast<std::size_t>(st.out_op)]
            .plan->output_shape()
            .floats() +
        2 * band;
    std::int64_t offset = 0;
    for (const Block& b : live) {
      if (offset + size <= b.offset) {
        break;  // fits in the gap before this block
      }
      offset = std::max(offset, b.offset + b.floats);
    }
    const Block placed{offset, size, last_use[static_cast<std::size_t>(i)]};
    live.insert(std::upper_bound(live.begin(), live.end(), placed,
                                 [](const Block& a, const Block& b) {
                                   return a.offset < b.offset;
                                 }),
                placed);
    st.arena_offset = offset + band;
    arena_floats_ = std::max(arena_floats_, offset + size);
  }
}

ConvEpilogue InferenceSession::epilogue(const Step& step,
                                        const float* residual) {
  return ConvEpilogue{.scale = step.scale.raw(),
                      .shift = step.shift.raw(),
                      .residual = residual,
                      .relu = step.relu,
                      .pool = step.pool ? &*step.pool : nullptr};
}

std::int64_t InferenceSession::workspace_bytes() const {
  const std::int64_t band =
      guard_bands_ ? detail::kWsGuardBandFloats : 0;
  return (arena_floats_ + plan_ws_floats_ + band) *
         static_cast<std::int64_t>(sizeof(float));
}

std::int64_t InferenceSession::batch_slots(std::int64_t batch) const {
  return detail::batch_slots(batch, std::max(num_threads(), 1));
}

std::int64_t InferenceSession::batched_workspace_bytes(
    std::int64_t batch) const {
  TDC_CHECK(batch >= 1);
  return batch_slots(batch) * workspace_bytes();
}

TDC_RUN_PATH void InferenceSession::run_graph(const float* x, float* y,
                                 std::span<float> workspace) const {
  const bool screen_finite = check_finite_enabled();
  float* arena = workspace.data();
  const std::span<float> plan_ws = workspace.subspan(
      static_cast<std::size_t>(arena_floats_),
      static_cast<std::size_t>(plan_ws_floats_));
  // Tail canary band of the shared plan-workspace slab (guarded sessions
  // only; workspace_bytes() reserved it).
  float* const ws_tail = arena + arena_floats_ + plan_ws_floats_;
  const std::int64_t band = guard_bands_ ? detail::kWsGuardBandFloats : 0;
  const float* ptrs[kMaxNodeInputs];
  const std::int64_t last = num_steps() - 1;
  const auto block = [&](std::int64_t step) -> const float* {
    return step == kModelInput
               ? x
               : arena + steps_[static_cast<std::size_t>(step)].arena_offset;
  };
  // The whole graph walk is an allocation-free region: every plan's
  // run_node, the parallel fan-outs they open, and the GEMM bands inside
  // them must live off the preallocated workspace alone.
  DenyAllocGuard alloc_guard("InferenceSession::run");
  if (fault_injected("exec.run_hidden_alloc")) {
    // Planted hidden allocation (fault-injection tests): the armed guard
    // must convert this into a typed error; disarmed it is freed again
    // immediately. The atomic escape keeps the compiler from eliding the
    // paired new/delete.
    static std::atomic<float*> sink{nullptr};
    sink.store(new float[16],  // tdc-analyze: allow(raw-new-array)
               std::memory_order_relaxed);
    delete[] sink.exchange(nullptr, std::memory_order_relaxed);
  }
  for (std::int64_t i = 0; i <= last; ++i) {
    const Step& step = steps_[static_cast<std::size_t>(i)];
    const Node& node = nodes_[static_cast<std::size_t>(step.head)];
    // Cooperative cancellation between steps: an expired budget throws here
    // (and between GEMM bands inside the conv plans) rather than hanging the
    // caller; no step is left half-run, only caller scratch holds stale data.
    deadline_poll("session step boundary");
    {
      double delay_ms = 0.0;
      if (fault_injected("exec.op_delay", &delay_ms)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
    }
    for (std::size_t k = 0; k < step.inputs.size(); ++k) {
      ptrs[k] = block(step.inputs[k]);
    }
    float* out = i == last ? y : arena + step.arena_offset;
    const std::int64_t out_floats =
        nodes_[static_cast<std::size_t>(step.out_op)]
            .plan->output_shape()
            .floats();
    if (band > 0) {
      // Re-fill the bands around the block this step is about to write (the
      // arena reuses space, so a band may hold a dead block's old data) and
      // the plan-workspace tail, then check them right after the step: an
      // overrun is reported at the step that committed it, before the
      // trampled bytes can become a later step's input.
      if (i != last) {
        detail::ws_guard_fill(out - band, band);
        detail::ws_guard_fill(out + out_floats, band);
      }
      detail::ws_guard_fill(ws_tail, band);
    }
    if (step.conv != nullptr) {
      step.conv->run_with_epilogue(
          ptrs[0], out, plan_ws,
          epilogue(step, step.residual == kNoResidual ? nullptr
                                                      : block(step.residual)));
    } else {
      node.plan->run_inputs(
          std::span<const float* const>(ptrs, step.inputs.size()), out,
          plan_ws);
    }
    if (i != last && fault_injected("exec.op_overrun")) {
      // Planted one-element overrun into the trailing band (tests).
      out[out_floats] = 0.0f;
    }
    if (band > 0) {
      if (i != last && !detail::ws_guard_intact(out + out_floats, band)) {
        detail::ws_guard_violation(node.name.c_str(), "trailing arena band");
      }
      if (i != last && !detail::ws_guard_intact(out - band, band)) {
        detail::ws_guard_violation(node.name.c_str(), "leading arena band");
      }
      if (!detail::ws_guard_intact(ws_tail, band)) {
        detail::ws_guard_violation(node.name.c_str(),
                                   "plan workspace tail band");
      }
    }
    if (fault_injected("exec.op_nan")) {
      out[0] = std::numeric_limits<float>::quiet_NaN();
    }
    if (screen_finite && !all_finite(out, out_floats)) {
      AllowAllocScope allow;  // cold path: the error message may allocate
      throw Error("op '" + node.name +
                      "' produced non-finite output (TDC_CHECK_FINITE)",
                  ErrorCode::kDataCorruption);
    }
  }
}

TDC_RUN_PATH void InferenceSession::run(const Tensor& x, Tensor* y,
                                        std::span<float> workspace) const {
  TDC_CHECK_MSG(operand_matches(x, input_shape_),
                "session input does not match " + input_shape_.to_string());
  TDC_CHECK_MSG(y != nullptr && operand_matches(*y, output_shape_),
                "session output must be a preallocated " +
                    output_shape_.to_string() + " tensor");
  TDC_CHECK_MSG(static_cast<std::int64_t>(workspace.size()) *
                        static_cast<std::int64_t>(sizeof(float)) >=
                    workspace_bytes(),
                "session workspace too small: need " +
                    std::to_string(workspace_bytes()) + " bytes");
  if (check_finite_enabled() && !all_finite(x.raw(), x.numel())) {
    throw Error("session input contains non-finite values "
                "(TDC_CHECK_FINITE)",
                ErrorCode::kInvalidArgument);
  }
  run_graph(x.raw(), y->raw(),
            workspace.first(static_cast<std::size_t>(workspace_bytes() /
                                                     sizeof(float))));
}

TDC_RUN_PATH void InferenceSession::run(const Tensor& x, Tensor* y,
                                        std::span<float> workspace,
                                        const Deadline& deadline) const {
  DeadlineScope scope(deadline);
  run(x, y, workspace);
}

Tensor InferenceSession::run(const Tensor& x) const {
  Tensor y({output_shape_.c, output_shape_.h, output_shape_.w});
  std::vector<float> workspace = map_resource_failure(
      "InferenceSession::run workspace", [&] {
        if (fault_injected("exec.run_alloc")) {
          throw std::bad_alloc();  // the convenience workspace failed
        }
        return std::vector<float>(
            static_cast<std::size_t>(workspace_bytes() / sizeof(float)));
      });
  run(x, &y, workspace);
  return y;
}

TDC_RUN_PATH void InferenceSession::run_batched(
    const Tensor& x, Tensor* y, std::span<float> workspace) const {
  TDC_CHECK_MSG(x.rank() == 4 && x.dim(1) == input_shape_.c &&
                    x.dim(2) == input_shape_.h && x.dim(3) == input_shape_.w,
                "batched session input must be [B, C, H, W]");
  const std::int64_t batch = x.dim(0);
  TDC_CHECK_MSG(y != nullptr && y->rank() == 4 && y->dim(0) == batch &&
                    y->dim(1) == output_shape_.c &&
                    y->dim(2) == output_shape_.h &&
                    y->dim(3) == output_shape_.w,
                "batched session output must be [B, C', H', W']");
  const std::int64_t ws_floats = static_cast<std::int64_t>(workspace.size());
  const std::int64_t per_slot =
      workspace_bytes() / static_cast<std::int64_t>(sizeof(float));
  TDC_CHECK_MSG(ws_floats * static_cast<std::int64_t>(sizeof(float)) >=
                    workspace_bytes(),
                "batched session workspace too small: need at least "
                "workspace_bytes() for one slot");
  if (check_finite_enabled() && !all_finite(x.raw(), x.numel())) {
    throw Error("batched session input contains non-finite values "
                "(TDC_CHECK_FINITE)",
                ErrorCode::kInvalidArgument);
  }

  const std::int64_t x_stride = input_shape_.floats();
  const std::int64_t y_stride = output_shape_.floats();
  // The fan-out itself must not allocate; the guard rides into the pool
  // workers, and each image's graph walk re-arms it with the session site.
  DenyAllocGuard alloc_guard("InferenceSession::run_batched");
  detail::run_slotted(
      batch, detail::clamped_batch_slots(batch, per_slot, ws_floats),
      workspace, per_slot, [&](std::int64_t b, std::span<float> slot_ws) {
        run_graph(x.raw() + b * x_stride, y->raw() + b * y_stride, slot_ws);
      });
}

TDC_RUN_PATH void InferenceSession::run_batched(
    const Tensor& x, Tensor* y, std::span<float> workspace,
    const Deadline& deadline) const {
  DeadlineScope scope(deadline);
  run_batched(x, y, workspace);
}

}  // namespace tdc
