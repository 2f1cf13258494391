#include "src/dist/remote_service.h"

#include "src/dist/retry.h"
#include "src/obs/obs.h"

namespace coda::dist {

namespace {

obs::MetricScope& service_scope(const SimNet* net, NodeId self) {
  require(net != nullptr, "RemoteModelService: null dependency");
  return obs::MetricScope::for_node(net->node_name(self));
}

}  // namespace

RemoteModelService::Tallies::Tallies(obs::MetricScope& node)
    : fit_calls("remote.fit.calls", node),
      predict_calls("remote.predict.calls", node),
      bytes_in("remote.bytes_in", node),
      bytes_out("remote.bytes_out", node) {}

RemoteModelService::RemoteModelService(SimNet* net, NodeId self,
                                       std::unique_ptr<Estimator> model,
                                       RetryPolicy retry)
    : net_(net),
      self_(self),
      model_(std::move(model)),
      retry_(retry),
      tallies_(service_scope(net, self)) {
  require(model_ != nullptr, "RemoteModelService: null dependency");
  retry_.validate();
}

void RemoteModelService::fit(NodeId caller, const Matrix& X,
                             const std::vector<double>& y) {
  obs::ScopedSpan span("remote.fit");
  span.set_node(net_->node_name(self_));
  const std::size_t request =
      matrix_bytes(X) + y.size() * sizeof(double) + 16;
  transfer_with_retry(*net_, caller, self_, request, retry_, "remote.fit");
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    model_->fit(X, y);
  }
  transfer_with_retry(*net_, self_, caller, 16, retry_, "remote.fit");  // ack
  tallies_.fit_calls.inc();
  tallies_.bytes_in.inc(request);
  tallies_.bytes_out.inc(16);
}

std::vector<double> RemoteModelService::predict(NodeId caller,
                                                const Matrix& X) {
  obs::ScopedSpan span("remote.predict");
  span.set_node(net_->node_name(self_));
  const std::size_t request = matrix_bytes(X);
  transfer_with_retry(*net_, caller, self_, request, retry_,
                      "remote.predict");
  std::vector<double> predictions;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    predictions = model_->predict(X);
  }
  const std::size_t response = predictions.size() * sizeof(double) + 16;
  transfer_with_retry(*net_, self_, caller, response, retry_,
                      "remote.predict");
  tallies_.predict_calls.inc();
  tallies_.bytes_in.inc(request);
  tallies_.bytes_out.inc(response);
  return predictions;
}

RemoteModelService::CallStats RemoteModelService::stats() const {
  CallStats out;
  out.fit_calls = tallies_.fit_calls.value();
  out.predict_calls = tallies_.predict_calls.value();
  out.bytes_in = tallies_.bytes_in.value();
  out.bytes_out = tallies_.bytes_out.value();
  return out;
}

}  // namespace coda::dist
