#include "games/game.h"

#include <algorithm>
#include <cmath>

#include "util/bytes.h"
#include "util/logging.h"

namespace snip {
namespace games {

namespace {

// Salts decorrelating the deterministic draws inside process().
constexpr uint64_t kSaltUseless = 0x075e1e55ULL;
constexpr uint64_t kSaltPattern = 0x09a77e24ULL;
constexpr uint64_t kSaltScore = 0x05c042eaULL;
constexpr uint64_t kSaltDelta = 0x0de17a00ULL;
constexpr uint64_t kSaltExtIn = 0x0e871a10ULL;
constexpr uint64_t kSaltExtOut = 0x0e871a20ULL;
constexpr uint64_t kSaltCost = 0x0c057c05ULL;
constexpr uint64_t kSaltWhich = 0x0071c400ULL;
constexpr uint64_t kSaltTempOnly = 0x007e3b01ULL;

/**
 * Bound on the words of the necessary-input hash (type salt,
 * necessary event and history fields, scoring fields); checked per
 * handler at construction so process() can hash from the stack.
 */
constexpr size_t kMaxHashWords = 32;

/** Value of a field within an event object; panics when absent. */
uint64_t
eventValue(const events::EventObject &ev, events::FieldId fid)
{
    const events::FieldValue *fv = events::findField(ev.fields, fid);
    if (!fv)
        util::panic("event %s missing field id %u",
                    events::eventTypeName(ev.type), fid);
    return fv->value;
}

}  // namespace

Game::Game(GameParams params)
    : params_(std::move(params))
{
    if (params_.name.empty())
        util::fatal("Game: empty name");
    if (params_.mix.empty())
        util::fatal("game %s: empty event mix", params_.name.c_str());
    if (params_.handlers.size() != params_.mix.size())
        util::fatal("game %s: %zu handlers for %zu mix entries",
                    params_.name.c_str(), params_.handlers.size(),
                    params_.mix.size());
    handlerIdx_.fill(-1);
    buildSchema();
    state_.build(params_.history_fields);
}

void
Game::buildSchema()
{
    // History fields first: input side ("h.<name>") and output side
    // ("o.<name>") bind to the same state slot.
    auto &hist = params_.history_fields;
    size_t nfields = 2 * hist.size() + params_.extern_fields.size();
    for (const HandlerSpec &spec : params_.handlers)
        nfields += spec.event_fields.size() + spec.max_history_blocks +
                   spec.temp_outputs + (spec.extern_output.empty() ? 0 : 1);
    schema_.reserve(nfields);
    for (size_t i = 0; i < hist.size(); ++i) {
        auto &d = hist[i];
        for (size_t j = 0; j < i; ++j)
            if (hist[j].name == d.name)
                util::fatal("game %s: duplicate history field %s",
                            params_.name.c_str(), d.name.c_str());
        d.in_fid = schema_.addInput("h." + d.name,
                                    events::InputCategory::History,
                                    d.size_bytes);
        d.out_fid = schema_.addOutput("o." + d.name,
                                      events::OutputCategory::History,
                                      d.size_bytes);
    }

    for (const auto &name : params_.extern_fields) {
        schema_.addInput("x." + name, events::InputCategory::Extern,
                         params_.extern_bytes);
    }

    auto hist_ref = [&](const std::string &name) -> HistRef {
        for (const HistoryFieldDecl &d : hist)
            if (d.name == name)
                return {d.in_fid, d.out_fid, d.buckets};
        util::fatal("game %s: unknown history field %s",
                    params_.name.c_str(), name.c_str());
    };

    handlerIds_.resize(params_.handlers.size());
    for (size_t h = 0; h < params_.handlers.size(); ++h) {
        HandlerSpec &spec = params_.handlers[h];
        if (spec.type != params_.mix[h].type)
            util::fatal("game %s: handler %zu type mismatch with mix",
                        params_.name.c_str(), h);
        int ti = static_cast<int>(spec.type);
        if (handlerIdx_[ti] != -1)
            util::fatal("game %s: duplicate handler for %s",
                        params_.name.c_str(),
                        events::eventTypeName(spec.type));
        handlerIdx_[ti] = static_cast<int>(h);

        const char *tn = events::eventTypeName(spec.type);
        HandlerIds &ids = handlerIds_[h];

        uint32_t size_sum = 0;
        for (auto &efs : spec.event_fields) {
            efs.fid = schema_.addInput(
                std::string(tn) + "." + efs.name,
                events::InputCategory::Event, efs.size_bytes);
            size_sum += efs.size_bytes;
            if (efs.cardinality < 2)
                util::fatal("game %s: field %s.%s cardinality < 2",
                            params_.name.c_str(), tn, efs.name.c_str());
            if (efs.necessary)
                ids.necessary_event.push_back(efs.fid);
        }
        if (size_sum != events::eventObjectBytes(spec.type))
            util::fatal("game %s: %s event fields sum to %u B, object "
                        "is %u B", params_.name.c_str(), tn, size_sum,
                        events::eventObjectBytes(spec.type));

        for (uint32_t j = 0; j < spec.max_history_blocks; ++j) {
            events::FieldId bf = schema_.addInput(
                std::string(tn) + ".blk" + std::to_string(j),
                events::InputCategory::History,
                spec.history_block_bytes);
            ids.blocks.push_back(bf);
            blockIndex_[bf] = j;
        }
        for (uint32_t j = 0; j < spec.temp_outputs; ++j) {
            ids.temp_out.push_back(schema_.addOutput(
                std::string(tn) + ".t" + std::to_string(j),
                events::OutputCategory::Temp, 16));
        }
        if (!spec.extern_output.empty()) {
            ids.extern_out = schema_.addOutput(
                std::string(tn) + ".xo." + spec.extern_output,
                events::OutputCategory::Extern, 256);
        }

        // Resolve (and validate) the cross-references by name.
        for (const auto &n : spec.necessary_history) {
            ids.necessary.push_back(hist_ref(n));
            if (ids.necessary.back().buckets == 0)
                util::fatal("game %s: necessary_history %s is an "
                            "accumulator", params_.name.c_str(),
                            n.c_str());
        }
        for (const auto &n : spec.scoring_history) {
            ids.scoring.push_back(hist_ref(n));
            if (ids.scoring.back().buckets != 0)
                util::fatal("game %s: scoring_history %s is not an "
                            "accumulator", params_.name.c_str(),
                            n.c_str());
        }
        for (const auto &n : spec.history_outputs)
            ids.outputs.push_back(hist_ref(n));
        auto is_necessary = [&](events::FieldId in_fid) {
            for (const HistRef &r : ids.necessary)
                if (r.in_fid == in_fid)
                    return true;
            return false;
        };
        if (!spec.complexity_field.empty()) {
            ids.complexity = hist_ref(spec.complexity_field);
            ids.complexity_extra = !is_necessary(ids.complexity.in_fid);
        }
        if (!spec.plateau_history_field.empty()) {
            ids.plateau = hist_ref(spec.plateau_history_field);
            if (ids.plateau.buckets == 0)
                util::fatal("game %s: plateau field %s is an "
                            "accumulator", params_.name.c_str(),
                            spec.plateau_history_field.c_str());
            for (const auto &efs : spec.event_fields) {
                if (efs.name == spec.plateau_event_field &&
                    efs.necessary) {
                    ids.plateau_event = efs.fid;
                    ids.plateau_cardinality = efs.cardinality;
                }
            }
            if (ids.plateau_event == events::kInvalidField)
                util::fatal("game %s: plateau event field %s missing "
                            "or not necessary", params_.name.c_str(),
                            spec.plateau_event_field.c_str());
            if (!is_necessary(ids.plateau.in_fid))
                util::fatal("game %s: plateau history field %s must "
                            "be in necessary_history",
                            params_.name.c_str(),
                            spec.plateau_history_field.c_str());
        }
        if (!spec.extern_field.empty()) {
            ids.extern_in = schema_.find("x." + spec.extern_field);
            if (ids.extern_in == events::kInvalidField)
                util::fatal("game %s: unknown extern field %s",
                            params_.name.c_str(),
                            spec.extern_field.c_str());
        }

        ids.type_salt = util::mixCombine(
            params_.salt, 0x7717e000ULL + static_cast<uint64_t>(spec.type));
        size_t hash_words = 1 + ids.necessary_event.size() +
                            ids.necessary.size() + ids.scoring.size();
        if (hash_words > kMaxHashWords)
            util::fatal("game %s: %s hashes %zu necessary inputs, more "
                        "than %zu", params_.name.c_str(), tn, hash_words,
                        kMaxHashWords);
        ids.max_inputs = spec.event_fields.size() + ids.necessary.size() +
                         (ids.complexity_extra ? 1 : 0) +
                         ids.blocks.size() +
                         (ids.extern_in != events::kInvalidField ? 1 : 0) +
                         ids.scoring.size();
        ids.max_outputs = ids.temp_out.size() +
                          (ids.outputs.empty() ? 0 : 1) +
                          ids.scoring.size() +
                          (ids.extern_out != events::kInvalidField ? 1 : 0);
    }
}

double
Game::totalEventRate() const
{
    double total = 0.0;
    for (const auto &m : params_.mix)
        total += m.rate_hz;
    return total;
}

const HandlerSpec &
Game::handler(events::EventType t) const
{
    int idx = handlerIdx_[static_cast<int>(t)];
    if (idx < 0)
        util::panic("game %s: no handler for %s", params_.name.c_str(),
                    events::eventTypeName(t));
    return params_.handlers[static_cast<size_t>(idx)];
}

const std::vector<double> &
Game::zipfCdf(uint32_t cardinality) const
{
    auto it = zipfCdfs_.find(cardinality);
    if (it != zipfCdfs_.end())
        return it->second;
    std::vector<double> cdf(cardinality);
    double acc = 0.0;
    for (uint32_t r = 0; r < cardinality; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1),
                              params_.user.zipf_s);
        cdf[r] = acc;
    }
    for (auto &v : cdf)
        v /= acc;
    return zipfCdfs_.emplace(cardinality, std::move(cdf)).first->second;
}

void
Game::makeEvent(events::EventType t, double now, util::Rng &rng,
                events::EventObject &out)
{
    const HandlerSpec &spec = handler(t);
    GenMemory &mem = genMem_[static_cast<int>(t)];

    out.type = t;
    out.seq = seq_++;
    out.timestamp = now;

    if (mem.valid && rng.chance(params_.user.exact_repeat_prob)) {
        out.fields = mem.fields;  // finger held still: exact repeat
        return;
    }

    bool burst = mem.valid && rng.chance(params_.user.burst_continue_prob);

    // Two shared micro-context latents drive all noise fields; see
    // UserModelParams::noise_pool.
    auto zipf_draw = [&](uint32_t cardinality) -> uint64_t {
        const auto &cdf = zipfCdf(cardinality);
        double r = rng.uniformReal();
        auto pos = std::lower_bound(cdf.begin(), cdf.end(), r);
        uint64_t v = static_cast<uint64_t>(pos - cdf.begin());
        return v >= cardinality ? cardinality - 1 : v;
    };
    uint64_t latent[2] = {zipf_draw(params_.user.noise_pool),
                          zipf_draw(params_.user.noise_pool)};

    out.fields.clear();
    size_t noise_idx = 0;
    for (const auto &efs : spec.event_fields) {
        uint64_t value;
        if (efs.necessary) {
            value = burst ? events::findField(mem.fields, efs.fid)->value
                          : zipf_draw(efs.cardinality);
        } else {
            value = util::mixCombine(
                efs.fid, latent[noise_idx++ % 2]);
        }
        out.fields.push_back({efs.fid, value});
    }
    events::canonicalize(out.fields);
    mem.valid = true;
    mem.fields = out.fields;
}

events::EventObject
Game::makeEvent(events::EventType t, double now, util::Rng &rng)
{
    events::EventObject ev;
    makeEvent(t, now, rng, ev);
    return ev;
}

void
Game::process(const events::EventObject &ev, HandlerExecution &out) const
{
    int idx = handlerIdx_[static_cast<int>(ev.type)];
    if (idx < 0)
        util::panic("game %s: process() for unhandled type %s",
                    params_.name.c_str(), events::eventTypeName(ev.type));
    const HandlerSpec &spec = params_.handlers[static_cast<size_t>(idx)];
    const HandlerIds &ids = handlerIds_[static_cast<size_t>(idx)];

    out.type = ev.type;
    out.seq = ev.seq;
    out.inputs.reserve(ids.max_inputs);
    out.inputs.assign(ev.fields.begin(), ev.fields.end());
    out.outputs.clear();
    out.outputs.reserve(ids.max_outputs);
    out.ip_calls.clear();
    out.ip_calls.reserve(spec.ip_calls.size());
    out.scoring = false;

    // --- Necessary-input vector (the ground truth PFI must find) ---
    // vhash covers the prefix read on every execution; the scoring
    // branch appends its accumulators and necessary_hash continues
    // the same FNV-1a pass from vhash.
    std::array<uint64_t, kMaxHashWords> vals;
    size_t nvals = 0;
    vals[nvals++] = ids.type_salt;
    for (events::FieldId fid : ids.necessary_event)
        vals[nvals++] = util::mixCombine(fid, eventValue(ev, fid));
    for (const HistRef &r : ids.necessary) {
        uint64_t v = state_.get(r.in_fid);
        out.inputs.push_back({r.in_fid, v});
        vals[nvals++] = util::mixCombine(r.in_fid, v);
    }
    const size_t nprefix = nvals;
    uint64_t vhash = util::fnv1a(vals.data(), nprefix * sizeof(uint64_t));

    // --- Unnecessary reads: complexity, context blocks, extern ---
    uint64_t complexity = 0;
    if (ids.complexity.in_fid != events::kInvalidField) {
        const HistRef &c = ids.complexity;
        complexity = state_.get(c.in_fid);
        if (ids.complexity_extra)
            out.inputs.push_back({c.in_fid, complexity});
        uint32_t blocks = c.buckets
            ? static_cast<uint32_t>(complexity * spec.max_history_blocks /
                                    c.buckets)
            : 0;
        if (spec.max_history_blocks > 0 && blocks == 0)
            blocks = 1;  // even a bare scene has one context block
        blocks = std::min<uint32_t>(blocks, spec.max_history_blocks);
        for (uint32_t j = 0; j < blocks; ++j)
            out.inputs.push_back({ids.blocks[j], state_.blockContent(j)});
    }
    if (ids.extern_in != events::kInvalidField &&
        util::mixCombine(vhash, kSaltExtIn) % 1000000 <
            spec.extern_per_million) {
        out.inputs.push_back(
            {ids.extern_in, util::mixCombine(params_.salt, ids.extern_in)});
    }

    // --- Useless (no-op) decision: deterministic in the combo ---
    bool useless = false;
    if (ids.plateau.in_fid != events::kInvalidField) {
        // The plateau field is bounded (buckets > 0, checked at
        // construction): its top bucket is buckets - 1.
        uint64_t hv = state_.get(ids.plateau.in_fid);
        uint64_t evv = eventValue(ev, ids.plateau_event);
        useless = hv == ids.plateau.buckets - 1 &&
                  evv * 4 >= 3ull * ids.plateau_cardinality;
    }
    useless = useless ||
        util::mixCombine(vhash, kSaltUseless) % 10000 <
            spec.useless_per_myriad;
    out.useless = useless;

    bool state_changed = false;
    if (!useless) {
        uint64_t pattern = util::mixCombine(vhash, kSaltPattern) %
                           std::max<uint32_t>(1, spec.output_cardinality);
        uint64_t pkey = util::mixCombine(ids.type_salt, pattern + 1);
        bool scoring = util::mixCombine(vhash, kSaltScore) % 100 <
                       spec.scoring_per_cent;
        scoring = scoring && !ids.scoring.empty();
        out.scoring = scoring;

        for (events::FieldId tf : ids.temp_out)
            out.outputs.push_back({tf, util::mixCombine(pkey, tf)});
        // Some reactions are render/haptic-only (Out.Temp) and leave
        // the state untouched; otherwise a single event advances
        // only one piece of game state (a tile, the stretch, the
        // detected plane). Both choices, like the written value, are
        // deterministic functions of the necessary-input combo. The
        // written value derives from a *coarsened* pattern so that
        // distinct reactions can share the same state effect while
        // differing in their transient output.
        bool temp_only = util::mixCombine(vhash, kSaltTempOnly) % 100 <
                         spec.temp_only_per_cent;
        if (!ids.outputs.empty() && !temp_only) {
            size_t which = util::mixCombine(vhash, kSaltWhich) %
                           ids.outputs.size();
            events::FieldId of = ids.outputs[which].out_fid;
            uint64_t coarse = util::mixCombine(ids.type_salt,
                                               pattern / 4 + 1);
            uint64_t value = util::mixCombine(coarse, of);
            out.outputs.push_back({of, value});
            state_changed |= state_.wouldChange(of, value);
        }
        if (scoring) {
            uint32_t k = 0;
            for (const HistRef &r : ids.scoring) {
                uint64_t cur = state_.get(r.in_fid);
                out.inputs.push_back({r.in_fid, cur});
                vals[nvals++] = util::mixCombine(r.in_fid, cur);
                uint64_t u = util::mixCombine(vhash, kSaltDelta + k++);
                out.outputs.push_back({r.out_fid, cur + 1 + u % 50});
                state_changed = true;
            }
            if (ids.extern_out != events::kInvalidField &&
                util::mixCombine(vhash, kSaltExtOut) % 5 == 0) {
                out.outputs.push_back(
                    {ids.extern_out,
                     util::mixCombine(pkey, ids.extern_out)});
            }
        }
    }
    out.necessary_hash =
        util::fnv1a(vals.data() + nprefix,
                    (nvals - nprefix) * sizeof(uint64_t), vhash);
    out.state_changed = state_changed;

    // --- Cost model (deterministic in combo + complexity) ---
    uint64_t cu = util::mixCombine(vhash, kSaltCost);
    double spread = 1.0 - spec.minstr_spread +
        2.0 * spec.minstr_spread *
            (static_cast<double>(cu % 1024) / 1024.0);
    double scale = spread *
        (1.0 + spec.complexity_cost_factor *
                   static_cast<double>(complexity)) *
        (out.scoring ? 1.3 : 1.0);
    out.cpu_instructions =
        static_cast<uint64_t>(spec.minstr_mean * scale * 1e6);
    for (const auto &c : spec.ip_calls)
        out.ip_calls.push_back({c.kind, c.work_units * scale});
    uint64_t input_bytes = schema_.bytesOf(out.inputs);
    out.memory_bytes = static_cast<uint64_t>(
        spec.mem_bytes_factor * static_cast<double>(input_bytes)) +
        out.cpu_instructions / 16;
    out.maxcpu_fraction = spec.maxcpu_repeat_fraction;

    events::canonicalize(out.inputs);
    events::canonicalize(out.outputs);
}

HandlerExecution
Game::process(const events::EventObject &ev) const
{
    HandlerExecution ex;
    process(ev, ex);
    return ex;
}

void
Game::applyOutputs(const std::vector<events::FieldValue> &outputs)
{
    for (const auto &fv : outputs)
        state_.apply(fv.id, fv.value);
}

std::vector<events::FieldId>
Game::necessaryInputIds(events::EventType t) const
{
    handler(t);  // panics when the game lacks the type
    const HandlerIds &hids =
        handlerIds_[static_cast<size_t>(handlerIdx_[static_cast<int>(t)])];
    std::vector<events::FieldId> ids = hids.necessary_event;
    for (const HistRef &r : hids.necessary)
        ids.push_back(r.in_fid);
    for (const HistRef &r : hids.scoring)
        ids.push_back(r.in_fid);
    std::sort(ids.begin(), ids.end());
    return ids;
}

bool
Game::gatherInputValue(events::FieldId fid, uint64_t &value) const
{
    if (state_.tryGet(fid, value))
        return true;
    auto bit = blockIndex_.find(fid);
    if (bit != blockIndex_.end()) {
        value = state_.blockContent(bit->second);
        return true;
    }
    const auto &d = schema_.def(fid);
    if (d.side == events::FieldSide::Input &&
        d.in_cat == events::InputCategory::Extern) {
        value = util::mixCombine(params_.salt, fid);
        return true;
    }
    return false;
}

void
Game::reset()
{
    state_.reset();
    for (auto &m : genMem_)
        m.valid = false;
    seq_ = 0;
}

}  // namespace games
}  // namespace snip
