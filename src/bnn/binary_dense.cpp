#include "bnn/binary_dense.hpp"

#include "bnn/engine.hpp"
#include "bnn/plan.hpp"
#include "core/check.hpp"

namespace flim::bnn {

BinaryDense::BinaryDense(std::string name, std::int64_t in_features,
                         std::int64_t out_features,
                         tensor::FloatTensor weights)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      packed_weights_(tensor::BitMatrix::from_float(weights)) {
  FLIM_REQUIRE((weights.shape() == tensor::Shape{out_features_, in_features_}),
               "binary dense weights must be [out_features, in_features]");
}

void BinaryDense::plan(PlanContext& pc) const {
  const tensor::Shape& in = pc.shape();
  FLIM_REQUIRE(in.rank() == 2, "binary dense expects [batch, features]");
  FLIM_REQUIRE(in[1] == in_features_, "binary dense input feature mismatch");
  const std::size_t si = pc.begin_step(*this);
  PlanStep& st = pc.step(si);
  st.positions = 1;  // dense: one output position per image
  st.binary_macs = in_features_ * out_features_;
  st.bit_slot = pc.alloc_bit_slot();
  st.int_slot = pc.alloc_int_slot();
  st.out_shape = tensor::Shape{in[0], out_features_};
  st.acc_shape = st.out_shape;
  pc.set_shape(st.out_shape);
  pc.release_slots(si);
}

void BinaryDense::execute(const tensor::FloatTensor& input,
                          tensor::FloatTensor& out, ExecContext& ec) const {
  const PlanStep& st = ec.next_step();
  const std::int64_t n = input.shape()[0];

  // Binarize the incoming activations (sign) and pack into reused storage.
  tensor::BitMatrix& activations = ec.bit_slot(st.bit_slot);
  ec.ws().reshape(activations, n, in_features_);
  activations.pack_rows_from_float(input.data());

  tensor::IntTensor& flat = ec.int_slot(st.int_slot);
  ec.ws().reshape(flat, st.acc_shape);
  ec.engine().execute(name(), activations, packed_weights_, st.positions,
                      flat);

  ec.ws().reshape(out, st.out_shape);
  const std::int32_t* src = flat.data();
  float* dst = out.data();
  const std::int64_t total = flat.numel();
  for (std::int64_t i = 0; i < total; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

}  // namespace flim::bnn
