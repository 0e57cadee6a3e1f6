// Umbrella header for the telemetry subsystem. Instrumented code includes
// this one header. Recording is gated at run time (obs::enabled(),
// obs::trace_enabled()); there is no compile-time switch.
#pragma once

#include "pamr/obs/metrics.hpp"
#include "pamr/obs/registry.hpp"
#include "pamr/obs/report.hpp"
#include "pamr/obs/trace.hpp"
