#include "sim/model_replay.hpp"

namespace qccd
{

ModelFold::ModelFold(const HardwareParams &hw, int max_chain,
                     SimResult &out, ModelEvalLog *log)
    : tables_(ModelTables::shared(hw, max_chain)),
      recoolFactor_(hw.recoolFactor), out_(out), log_(log)
{
    out_.logFidelity = 0;
    out_.zeroFidelityOps = 0;
    out_.sumBackgroundError = 0;
    out_.sumMotionalError = 0;
    out_.maxChainEnergy = 0;
    if (log_ != nullptr)
        log_->setMaxChain(tables_->maxChain());
}

void
ModelFold::apply(const Event &ev)
{
    switch (ev.kind) {
      case Event::Kind::Ms:
        ms(ev.trap, ev.a, ev.physDur);
        break;
      case Event::Kind::OneQubit:
        oneQubit();
        break;
      case Event::Kind::Measure:
        measure();
        break;
      case Event::Kind::Split:
        split(ev.trap, ev.a);
        break;
      case Event::Kind::Merge:
        merge(ev.trap);
        break;
      case Event::Kind::Moves:
        moves(ev.a);
        break;
      case Event::Kind::Junction:
        junction();
        break;
      case Event::Kind::IonSwapHop:
        ionSwapHop(ev.trap, ev.a);
        break;
    }
}

SimResult
replayModelEval(const ModelEvalLog &log, const HardwareParams &hw,
                const SimResult &base)
{
    SimResult out = base;
    ModelFold fold(hw, log.maxChain(), out);
    for (const ModelEvalLog::Event &ev : log.events())
        fold.apply(ev);
    return out;
}

} // namespace qccd
