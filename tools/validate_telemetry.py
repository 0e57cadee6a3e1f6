#!/usr/bin/env python3
"""Validate pamr telemetry artifacts (stdlib only; run by the CI
"Observability smoke" step and usable by hand).

    validate_telemetry.py report <report.json>   # --metrics-out output
    validate_telemetry.py trace <trace.json>     # --trace-out output

report: enforces the "pamr-metrics/1" schema — every value an integer,
every counter/histogram tagged with a known scope, bucket sums consistent,
route.stopped_early (route calls that stopped at a certain overload) a
unit counter no larger than route.calls, suite.instances_reused
(instances folded from an identical set's sample) a unit counter no larger
than suite.instances, and sim.flit_hops_retired (simulator hops accounted
in closed form on private tails) a unit counter no larger than
sim.flit_hops.

trace: enforces the Chrome trace-event contract the repo's writer promises —
every B matched by an E with the same name in its (pid, tid) lane, lanes
empty at EOF, every pid that has spans carries a process_name metadata
record, timestamps non-negative and end >= begin.

Exit 0 on success (prints a one-line summary), 1 with a diagnostic on the
first violation.
"""
import json
import sys

SCHEMA = "pamr-metrics/1"
HIST_BUCKETS = 21
SCOPES = {"unit", "impl", "driver", "wall"}


def fail(message):
    print(f"validate_telemetry: {message}", file=sys.stderr)
    sys.exit(1)


def expect(condition, message):
    if not condition:
        fail(message)


def is_uint(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_report(path):
    with open(path, "rb") as handle:
        doc = json.load(handle)

    expect(isinstance(doc, dict), "report root is not an object")
    expect(doc.get("schema") == SCHEMA,
           f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    expect(isinstance(doc.get("driver"), str) and doc["driver"],
           "driver missing or empty")
    fingerprint = doc.get("fingerprint")
    expect(isinstance(fingerprint, str), "fingerprint missing")
    expect(fingerprint == "" or (len(fingerprint) == 16 and all(
        c in "0123456789abcdef" for c in fingerprint)),
           f"fingerprint {fingerprint!r} is not 16 lowercase hex digits")

    build = doc.get("build")
    expect(isinstance(build, dict), "build section missing")
    expect(build.get("obs_compiled") is True, "build.obs_compiled is not true")
    expect(is_uint(build.get("check_level")), "build.check_level is not an integer")
    expect(isinstance(build.get("compiler"), str), "build.compiler missing")
    expect(isinstance(doc.get("enabled"), bool), "enabled flag missing")

    counters = doc.get("counters")
    expect(isinstance(counters, dict) and counters, "counters section missing")
    for name, entry in counters.items():
        expect(isinstance(entry, dict), f"counter {name} is not an object")
        expect(entry.get("scope") in SCOPES, f"counter {name} has bad scope")
        expect(is_uint(entry.get("value")), f"counter {name} value is not an integer")
    stopped = counters.get("route.stopped_early")
    if stopped is not None:
        expect(stopped["scope"] == "unit", "route.stopped_early is not unit-scoped")
        calls = counters.get("route.calls", {}).get("value", 0)
        expect(stopped["value"] <= calls,
               f"route.stopped_early {stopped['value']} exceeds route.calls {calls}")
    reused = counters.get("suite.instances_reused")
    if reused is not None:
        expect(reused["scope"] == "unit", "suite.instances_reused is not unit-scoped")
        instances = counters.get("suite.instances", {}).get("value", 0)
        expect(reused["value"] <= instances,
               f"suite.instances_reused {reused['value']} exceeds "
               f"suite.instances {instances}")
    retired = counters.get("sim.flit_hops_retired")
    if retired is not None:
        expect(retired["scope"] == "unit", "sim.flit_hops_retired is not unit-scoped")
        hops = counters.get("sim.flit_hops", {}).get("value", 0)
        expect(retired["value"] <= hops,
               f"sim.flit_hops_retired {retired['value']} exceeds sim.flit_hops {hops}")

    histograms = doc.get("histograms")
    expect(isinstance(histograms, dict), "histograms section missing")
    for name, entry in histograms.items():
        expect(entry.get("scope") in SCOPES, f"histogram {name} has bad scope")
        expect(is_uint(entry.get("count")), f"histogram {name} count bad")
        expect(is_uint(entry.get("sum")), f"histogram {name} sum bad")
        buckets = entry.get("buckets")
        expect(isinstance(buckets, list) and len(buckets) == HIST_BUCKETS,
               f"histogram {name} needs exactly {HIST_BUCKETS} buckets")
        expect(all(is_uint(b) for b in buckets), f"histogram {name} bucket bad")
        expect(sum(buckets) == entry["count"],
               f"histogram {name}: bucket sum {sum(buckets)} != count {entry['count']}")

    phases = doc.get("phases")
    expect(isinstance(phases, dict) and phases, "phases section missing")
    for name, entry in phases.items():
        expect(is_uint(entry.get("wall_ns")), f"phase {name} wall_ns bad")
        expect(is_uint(entry.get("calls")), f"phase {name} calls bad")

    print(f"report OK: driver={doc['driver']} {len(counters)} counters, "
          f"{len(histograms)} histograms, {len(phases)} phases")


def validate_trace(path):
    with open(path, "rb") as handle:
        doc = json.load(handle)

    expect(isinstance(doc, dict), "trace root is not an object")
    expect(doc.get("displayTimeUnit") == "ms", "displayTimeUnit missing")
    events = doc.get("traceEvents")
    expect(isinstance(events, list) and events, "traceEvents missing or empty")

    stacks = {}       # (pid, tid) -> [(name, ts)]
    labeled = set()   # pids with a process_name record
    span_pids = set()
    names = set()
    begins = 0
    for i, event in enumerate(events):
        where = f"event {i}"
        expect(isinstance(event, dict), f"{where} is not an object")
        ph = event.get("ph")
        expect(isinstance(event.get("name"), str), f"{where} has no name")
        expect(is_uint(event.get("pid")), f"{where} has no pid")
        expect(is_uint(event.get("tid")), f"{where} has no tid")
        if ph == "M":
            expect(event["name"] == "process_name", f"{where}: unknown metadata")
            expect(isinstance(event.get("args", {}).get("name"), str),
                   f"{where}: process_name without a label")
            labeled.add(event["pid"])
            continue
        expect(ph in ("B", "E"), f"{where}: unexpected ph {ph!r}")
        ts = event.get("ts")
        expect(isinstance(ts, (int, float)) and ts >= 0, f"{where}: bad ts")
        lane = (event["pid"], event["tid"])
        span_pids.add(event["pid"])
        if ph == "B":
            stacks.setdefault(lane, []).append((event["name"], ts))
            names.add(event["name"])
            begins += 1
        else:
            stack = stacks.get(lane)
            expect(bool(stack), f"{where}: E without B in lane {lane}")
            open_name, open_ts = stack.pop()
            expect(open_name == event["name"],
                   f"{where}: E closes {event['name']!r} but {open_name!r} is open")
            expect(ts >= open_ts, f"{where}: span {open_name!r} ends before it begins")

    for lane, stack in stacks.items():
        expect(not stack, f"lane {lane} has {len(stack)} unclosed span(s)")
    for pid in sorted(span_pids):
        expect(pid in labeled, f"pid {pid} has spans but no process_name")

    print(f"trace OK: {begins} spans across {len(span_pids)} process(es), "
          f"{len(names)} distinct span names")


def main(argv):
    if len(argv) != 3 or argv[1] not in ("report", "trace"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        if argv[1] == "report":
            validate_report(argv[2])
        else:
            validate_trace(argv[2])
    except OSError as error:
        fail(str(error))
    except json.JSONDecodeError as error:
        fail(f"{argv[2]} is not valid JSON: {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
