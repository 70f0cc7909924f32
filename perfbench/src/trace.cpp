#include "trace.hpp"

#include "api/json.hpp"

namespace perfbench {

std::string
traceJson(const std::string &workload, std::uint64_t seed,
          const PhaseResult &phase, const std::string &notes)
{
    api::JsonWriter json;
    json.beginArray();
    for (const RequestRecord &r : phase.records) {
        const std::string id = "r" + std::to_string(r.index);
        json.beginObject();
        json.key("trace").value(static_cast<std::uint64_t>(r.index));
        json.key("id").value(id);
        json.key("name").value("request");
        json.key("start").value(r.start);
        json.key("end").value(r.end);
        json.key("ok").value(r.ok);
        json.key("pst_gain").value(r.pstGain);
        json.endObject();
        for (const Span &s : r.spans) {
            json.beginObject();
            json.key("trace").value(static_cast<std::uint64_t>(r.index));
            json.key("parent").value(id);
            json.key("name").value(s.name);
            json.key("start").value(s.start);
            json.key("end").value(s.end);
            json.endObject();
        }
        const ExecutedStages &st = r.stages;
        const std::pair<const char *, double> stages[] = {
            {"stage.workload", st.ranPipeline ? st.workload : -1.0},
            {"stage.backend", st.ranPipeline ? st.backend : -1.0},
            {"stage.sample", st.ranSample ? st.sample : -1.0},
            {"stage.mitigate:readout", st.ranReadout ? st.readout : -1.0},
            {"stage.mitigate:hammer", st.ranHammer ? st.hammer : -1.0},
            {"stage.score", st.ranPipeline ? st.score : -1.0},
            {phase.fleet ? "remainder.round_trip" : "remainder.queue_wait",
             r.remainder},
        };
        for (const auto &[name, seconds] : stages) {
            if (seconds < 0.0)
                continue;
            json.beginObject();
            json.key("trace").value(static_cast<std::uint64_t>(r.index));
            json.key("parent").value(id);
            json.key("name").value(name);
            json.key("dur").value(seconds);
            json.endObject();
        }
    }
    json.endArray();

    return "{\"workload\":\"" + workload + "\",\"seed\":" +
           std::to_string(seed) + ",\"notes\":" + notes +
           ",\"spans\":" + json.str() + "}";
}

} // namespace perfbench
