//! Golden bytes for every telemetry encoding: one fully populated
//! [`Telemetry`] document (every section present, every counter nonzero and
//! distinct, one additive field absent) pinned as its JSON document, its
//! Prometheus exposition and its registry JSON. Any change to the codecs
//! that moves a byte fails here.

#![allow(clippy::field_reassign_with_default)]

use squash_repro::squash::monitor;
use squash_repro::squash::runtime::RuntimeStats;
use squash_repro::squash::telemetry::{
    json, AttributionReport, FaultCount, RegionRow, RunMetrics, SiteRow, StageRecord, Telemetry,
    TrapCounts,
};
use squash_repro::vm::ICacheStats;

fn region(n: u16, base: u64) -> RegionRow {
    let mut r = RegionRow::default();
    r.region = n;
    r.decompressions = base + 1;
    r.hits = base + 2;
    r.evictions = base + 3;
    r.decomp_cycles = base + 4;
    r.hit_cycles = base + 5;
    r.stub_cycles = base + 6;
    r.residency_cycles = base + 7;
    r.residency_intervals = base + 8;
    r
}

fn site(tag: u32, base: u64) -> SiteRow {
    let mut s = SiteRow::default();
    s.site = tag;
    s.creates = base + 1;
    s.reuses = base + 2;
    s.frees = base + 3;
    s.cycles = base + 4;
    s
}

fn stage(name: &str, base: u64, note: &str) -> StageRecord {
    let mut s = StageRecord::default();
    s.name = name.into();
    s.wall_ns = base + 1;
    s.items = base + 2;
    s.output_bytes = base + 3;
    s.note = note.into();
    s
}

/// The golden document. `sampler_drops` is the one additive field left at
/// zero, so it is absent from the JSON and the registry.
fn golden() -> Telemetry {
    let mut run = RunMetrics::default();
    run.status = 3;
    run.instructions = 1_000_001;
    run.cycles = 1_234_567;
    run.output_bytes = 42;

    let mut rt = RuntimeStats::default();
    rt.decompressions = 101;
    rt.skipped = 102;
    rt.stub_hits = 103;
    rt.stub_allocs = 104;
    rt.restores = 105;
    rt.max_live_stubs = 9;
    rt.bits_read = 107;
    rt.insts_written = 108;
    rt.cycles_charged = 50_000;
    rt.hits = 110;
    rt.misses = 111;
    rt.evictions = 112;
    rt.regions_verified = 113;
    rt.checksum_cycles = 114;
    rt.ref_fallbacks = 115;

    let mut ic = ICacheStats::default();
    ic.hits = 900;
    ic.misses = 100;
    ic.flushes = 11;

    let mut traps = TrapCounts::default();
    traps.create_stub = 21;
    traps.entry = 22;
    traps.restore = 23;

    Telemetry {
        name: "golden/img.sqsh".into(),
        run: Some(run),
        runtime: Some(rt),
        icache: Some(ic),
        stages: vec![stage("plan", 200, "regions"), stage("encode", 300, "bytes \"blob\"")],
        attribution: Some(AttributionReport {
            regions: vec![region(1, 400), region(7, 500)],
            sites: vec![site((1 << 16) | 8, 600), site((7 << 16) | 12, 700)],
            interarrival: vec![31, 32, 33],
            traps,
            attributed_cycles: 40_000,
            end_cycle: 1_234_560,
        }),
        faults: vec![
            FaultCount { kind: "region_checksum".into(), count: 41 },
            FaultCount { kind: "truncated_stream".into(), count: 42 },
        ],
        docs: 3,
        trace_drops: 51,
        sampler_drops: 0,
    }
}

const GOLDEN_JSON: &str = "{\"schema\":2,\"name\":\"golden/img.sqsh\",\"docs\":3,\"trace_drops\":51,\
    \"run\":{\"status\":3,\"instructions\":1000001,\"cycles\":1234567,\"output_bytes\":42},\
    \"runtime\":{\"decompressions\":101,\"skipped\":102,\"stub_hits\":103,\
    \"stub_allocs\":104,\"restores\":105,\"max_live_stubs\":9,\"bits_read\":107,\
    \"insts_written\":108,\"cycles_charged\":50000,\"hits\":110,\"misses\":111,\
    \"evictions\":112,\"regions_verified\":113,\"checksum_cycles\":114,\
    \"ref_fallbacks\":115},\"icache\":{\"hits\":900,\"misses\":100,\"flushes\":11,\
    \"miss_ratio\":0.1},\"stages\":[{\"name\":\"plan\",\"wall_ns\":201,\"items\":202,\
    \"output_bytes\":203,\"note\":\"regions\"},{\"name\":\"encode\",\"wall_ns\":301,\
    \"items\":302,\"output_bytes\":303,\"note\":\"bytes \\\"blob\\\"\"}],\
    \"faults\":[{\"kind\":\"region_checksum\",\"count\":41},{\"kind\":\"truncated_stream\",\
    \"count\":42}],\"attribution\":{\"regions\":[{\"region\":1,\"decompressions\":401,\
    \"hits\":402,\"evictions\":403,\"decomp_cycles\":404,\"hit_cycles\":405,\
    \"stub_cycles\":406,\"residency_cycles\":407,\"residency_intervals\":408},{\"region\":7,\
    \"decompressions\":501,\"hits\":502,\"evictions\":503,\"decomp_cycles\":504,\
    \"hit_cycles\":505,\"stub_cycles\":506,\"residency_cycles\":507,\
    \"residency_intervals\":508}],\"sites\":[{\"site\":65544,\"creates\":601,\"reuses\":602,\
    \"frees\":603,\"cycles\":604},{\"site\":458764,\"creates\":701,\"reuses\":702,\
    \"frees\":703,\"cycles\":704}],\"trap_interarrival\":[31,32,33],\
    \"traps\":{\"create_stub\":21,\"entry\":22,\"restore\":23},\"attributed_cycles\":40000,\
    \"end_cycle\":1234560},\"coverage\":{\"attributed_cycles\":40000,\
    \"untracked_cycles\":10000}}";

const GOLDEN_PROM: &str = r##"# HELP squash_faults_total Machine-check faults by kind
# TYPE squash_faults_total counter
squash_faults_total{kind="region_checksum"} 41
squash_faults_total{kind="truncated_stream"} 42
# HELP squash_icache_flushes_total Instruction-cache flushes
# TYPE squash_icache_flushes_total counter
squash_icache_flushes_total 11
# HELP squash_icache_hits_total Instruction-cache hits
# TYPE squash_icache_hits_total counter
squash_icache_hits_total 900
# HELP squash_icache_miss_ratio Miss ratio
# TYPE squash_icache_miss_ratio gauge
squash_icache_miss_ratio 0.1
# HELP squash_icache_misses_total Instruction-cache misses
# TYPE squash_icache_misses_total counter
squash_icache_misses_total 100
# HELP squash_info What was measured; value is always 1
# TYPE squash_info gauge
squash_info{name="golden/img.sqsh"} 1
# HELP squash_region_cycles_total Attributed service cycles per region
# TYPE squash_region_cycles_total counter
squash_region_cycles_total{kind="decomp",region="1"} 404
squash_region_cycles_total{kind="decomp",region="7"} 504
squash_region_cycles_total{kind="hit",region="1"} 405
squash_region_cycles_total{kind="hit",region="7"} 505
squash_region_cycles_total{kind="stub",region="1"} 406
squash_region_cycles_total{kind="stub",region="7"} 506
# HELP squash_region_decompressions_total Decompressions per region
# TYPE squash_region_decompressions_total counter
squash_region_decompressions_total{region="1"} 401
squash_region_decompressions_total{region="7"} 501
# HELP squash_region_residency_cycles_total Cycles the region was buffer-resident
# TYPE squash_region_residency_cycles_total counter
squash_region_residency_cycles_total{region="1"} 407
squash_region_residency_cycles_total{region="7"} 507
# HELP squash_run_cycles_total Cycles consumed (instructions + service charges)
# TYPE squash_run_cycles_total counter
squash_run_cycles_total 1234567
# HELP squash_run_instructions_total Instructions executed
# TYPE squash_run_instructions_total counter
squash_run_instructions_total 1000001
# HELP squash_run_output_bytes_total Bytes the guest wrote
# TYPE squash_run_output_bytes_total counter
squash_run_output_bytes_total 42
# HELP squash_run_status Guest exit status
# TYPE squash_run_status gauge
squash_run_status 3
# HELP squash_runtime_bits_read_total Runtime decompressor counter
# TYPE squash_runtime_bits_read_total counter
squash_runtime_bits_read_total 107
# HELP squash_runtime_checksum_cycles_total Runtime decompressor counter
# TYPE squash_runtime_checksum_cycles_total counter
squash_runtime_checksum_cycles_total 114
# HELP squash_runtime_cycles_charged_total Runtime decompressor counter
# TYPE squash_runtime_cycles_charged_total counter
squash_runtime_cycles_charged_total 50000
# HELP squash_runtime_decompressions_total Runtime decompressor counter
# TYPE squash_runtime_decompressions_total counter
squash_runtime_decompressions_total 101
# HELP squash_runtime_evictions_total Runtime decompressor counter
# TYPE squash_runtime_evictions_total counter
squash_runtime_evictions_total 112
# HELP squash_runtime_hits_total Runtime decompressor counter
# TYPE squash_runtime_hits_total counter
squash_runtime_hits_total 110
# HELP squash_runtime_insts_written_total Runtime decompressor counter
# TYPE squash_runtime_insts_written_total counter
squash_runtime_insts_written_total 108
# HELP squash_runtime_max_live_stubs High-water mark of live restore stubs
# TYPE squash_runtime_max_live_stubs gauge
squash_runtime_max_live_stubs 9
# HELP squash_runtime_misses_total Runtime decompressor counter
# TYPE squash_runtime_misses_total counter
squash_runtime_misses_total 111
# HELP squash_runtime_ref_fallbacks_total Runtime decompressor counter
# TYPE squash_runtime_ref_fallbacks_total counter
squash_runtime_ref_fallbacks_total 115
# HELP squash_runtime_regions_verified_total Runtime decompressor counter
# TYPE squash_runtime_regions_verified_total counter
squash_runtime_regions_verified_total 113
# HELP squash_runtime_restores_total Runtime decompressor counter
# TYPE squash_runtime_restores_total counter
squash_runtime_restores_total 105
# HELP squash_runtime_skipped_total Runtime decompressor counter
# TYPE squash_runtime_skipped_total counter
squash_runtime_skipped_total 102
# HELP squash_runtime_stub_allocs_total Runtime decompressor counter
# TYPE squash_runtime_stub_allocs_total counter
squash_runtime_stub_allocs_total 104
# HELP squash_runtime_stub_hits_total Runtime decompressor counter
# TYPE squash_runtime_stub_hits_total counter
squash_runtime_stub_hits_total 103
# HELP squash_stage_items_total Stage items processed
# TYPE squash_stage_items_total counter
squash_stage_items_total{stage="encode"} 302
squash_stage_items_total{stage="plan"} 202
# HELP squash_stage_output_bytes_total Stage artifact bytes
# TYPE squash_stage_output_bytes_total counter
squash_stage_output_bytes_total{stage="encode"} 303
squash_stage_output_bytes_total{stage="plan"} 203
# HELP squash_stage_wall_ns_total Stage wall-clock
# TYPE squash_stage_wall_ns_total counter
squash_stage_wall_ns_total{stage="encode"} 301
squash_stage_wall_ns_total{stage="plan"} 201
# HELP squash_telemetry_docs Run documents folded into this aggregate
# TYPE squash_telemetry_docs gauge
squash_telemetry_docs 3
# HELP squash_trace_drops_total Events the bounded trace ring discarded
# TYPE squash_trace_drops_total counter
squash_trace_drops_total 51
# HELP squash_trap_interarrival_cycles Cycles between consecutive service traps (log2 buckets; bounds are conservative)
# TYPE squash_trap_interarrival_cycles histogram
squash_trap_interarrival_cycles_bucket{le="1"} 31
squash_trap_interarrival_cycles_bucket{le="2"} 63
squash_trap_interarrival_cycles_bucket{le="4"} 96
squash_trap_interarrival_cycles_bucket{le="+Inf"} 96
squash_trap_interarrival_cycles_sum 98
squash_trap_interarrival_cycles_count 96
# HELP squash_traps_total Service traps by kind
# TYPE squash_traps_total counter
squash_traps_total{kind="create_stub"} 21
squash_traps_total{kind="entry"} 22
squash_traps_total{kind="restore"} 23
"##;

const GOLDEN_REGISTRY_JSON: &str = "{\"metrics\":[{\"name\":\"squash_faults_total\",\"kind\":\"counter\",\
    \"help\":\"Machine-check faults by kind\",\
    \"samples\":[{\"labels\":{\"kind\":\"region_checksum\"},\"value\":41},\
    {\"labels\":{\"kind\":\"truncated_stream\"},\"value\":42}]},\
    {\"name\":\"squash_icache_flushes_total\",\"kind\":\"counter\",\
    \"help\":\"Instruction-cache flushes\",\"samples\":[{\"labels\":{},\"value\":11}]},\
    {\"name\":\"squash_icache_hits_total\",\"kind\":\"counter\",\
    \"help\":\"Instruction-cache hits\",\"samples\":[{\"labels\":{},\"value\":900}]},\
    {\"name\":\"squash_icache_miss_ratio\",\"kind\":\"gauge\",\"help\":\"Miss ratio\",\
    \"samples\":[{\"labels\":{},\"value\":0.1}]},{\"name\":\"squash_icache_misses_total\",\
    \"kind\":\"counter\",\"help\":\"Instruction-cache misses\",\"samples\":[{\"labels\":{},\
    \"value\":100}]},{\"name\":\"squash_info\",\"kind\":\"gauge\",\
    \"help\":\"What was measured; value is always 1\",\
    \"samples\":[{\"labels\":{\"name\":\"golden/img.sqsh\"},\"value\":1}]},\
    {\"name\":\"squash_region_cycles_total\",\"kind\":\"counter\",\
    \"help\":\"Attributed service cycles per region\",\
    \"samples\":[{\"labels\":{\"kind\":\"decomp\",\"region\":\"1\"},\"value\":404},\
    {\"labels\":{\"kind\":\"decomp\",\"region\":\"7\"},\"value\":504},\
    {\"labels\":{\"kind\":\"hit\",\"region\":\"1\"},\"value\":405},\
    {\"labels\":{\"kind\":\"hit\",\"region\":\"7\"},\"value\":505},\
    {\"labels\":{\"kind\":\"stub\",\"region\":\"1\"},\"value\":406},\
    {\"labels\":{\"kind\":\"stub\",\"region\":\"7\"},\"value\":506}]},\
    {\"name\":\"squash_region_decompressions_total\",\"kind\":\"counter\",\
    \"help\":\"Decompressions per region\",\"samples\":[{\"labels\":{\"region\":\"1\"},\
    \"value\":401},{\"labels\":{\"region\":\"7\"},\"value\":501}]},\
    {\"name\":\"squash_region_residency_cycles_total\",\"kind\":\"counter\",\
    \"help\":\"Cycles the region was buffer-resident\",\
    \"samples\":[{\"labels\":{\"region\":\"1\"},\"value\":407},\
    {\"labels\":{\"region\":\"7\"},\"value\":507}]},{\"name\":\"squash_run_cycles_total\",\
    \"kind\":\"counter\",\"help\":\"Cycles consumed (instructions + service charges)\",\
    \"samples\":[{\"labels\":{},\"value\":1234567}]},\
    {\"name\":\"squash_run_instructions_total\",\"kind\":\"counter\",\
    \"help\":\"Instructions executed\",\"samples\":[{\"labels\":{},\"value\":1000001}]},\
    {\"name\":\"squash_run_output_bytes_total\",\"kind\":\"counter\",\
    \"help\":\"Bytes the guest wrote\",\"samples\":[{\"labels\":{},\"value\":42}]},\
    {\"name\":\"squash_run_status\",\"kind\":\"gauge\",\"help\":\"Guest exit status\",\
    \"samples\":[{\"labels\":{},\"value\":3}]},{\"name\":\"squash_runtime_bits_read_total\",\
    \"kind\":\"counter\",\"help\":\"Runtime decompressor counter\",\
    \"samples\":[{\"labels\":{},\"value\":107}]},\
    {\"name\":\"squash_runtime_checksum_cycles_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":114}]},\
    {\"name\":\"squash_runtime_cycles_charged_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\
    \"value\":50000}]},{\"name\":\"squash_runtime_decompressions_total\",\
    \"kind\":\"counter\",\"help\":\"Runtime decompressor counter\",\
    \"samples\":[{\"labels\":{},\"value\":101}]},\
    {\"name\":\"squash_runtime_evictions_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":112}]},\
    {\"name\":\"squash_runtime_hits_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":110}]},\
    {\"name\":\"squash_runtime_insts_written_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":108}]},\
    {\"name\":\"squash_runtime_max_live_stubs\",\"kind\":\"gauge\",\
    \"help\":\"High-water mark of live restore stubs\",\"samples\":[{\"labels\":{},\
    \"value\":9}]},{\"name\":\"squash_runtime_misses_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":111}]},\
    {\"name\":\"squash_runtime_ref_fallbacks_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":115}]},\
    {\"name\":\"squash_runtime_regions_verified_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":113}]},\
    {\"name\":\"squash_runtime_restores_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":105}]},\
    {\"name\":\"squash_runtime_skipped_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":102}]},\
    {\"name\":\"squash_runtime_stub_allocs_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":104}]},\
    {\"name\":\"squash_runtime_stub_hits_total\",\"kind\":\"counter\",\
    \"help\":\"Runtime decompressor counter\",\"samples\":[{\"labels\":{},\"value\":103}]},\
    {\"name\":\"squash_stage_items_total\",\"kind\":\"counter\",\
    \"help\":\"Stage items processed\",\"samples\":[{\"labels\":{\"stage\":\"encode\"},\
    \"value\":302},{\"labels\":{\"stage\":\"plan\"},\"value\":202}]},\
    {\"name\":\"squash_stage_output_bytes_total\",\"kind\":\"counter\",\
    \"help\":\"Stage artifact bytes\",\"samples\":[{\"labels\":{\"stage\":\"encode\"},\
    \"value\":303},{\"labels\":{\"stage\":\"plan\"},\"value\":203}]},\
    {\"name\":\"squash_stage_wall_ns_total\",\"kind\":\"counter\",\
    \"help\":\"Stage wall-clock\",\"samples\":[{\"labels\":{\"stage\":\"encode\"},\
    \"value\":301},{\"labels\":{\"stage\":\"plan\"},\"value\":201}]},\
    {\"name\":\"squash_telemetry_docs\",\"kind\":\"gauge\",\
    \"help\":\"Run documents folded into this aggregate\",\"samples\":[{\"labels\":{},\
    \"value\":3}]},{\"name\":\"squash_trace_drops_total\",\"kind\":\"counter\",\
    \"help\":\"Events the bounded trace ring discarded\",\"samples\":[{\"labels\":{},\
    \"value\":51}]},{\"name\":\"squash_trap_interarrival_cycles\",\"kind\":\"histogram\",\
    \"help\":\"Cycles between consecutive service traps (log2 buckets; bounds are conservative)\",\
    \"samples\":[{\"labels\":{},\"sum\":98,\"count\":96,\"buckets\":[{\"le\":\"1\",\
    \"count\":31},{\"le\":\"2\",\"count\":32},{\"le\":\"4\",\"count\":33},{\"le\":\"+Inf\",\
    \"count\":0}]}]},{\"name\":\"squash_traps_total\",\"kind\":\"counter\",\
    \"help\":\"Service traps by kind\",\"samples\":[{\"labels\":{\"kind\":\"create_stub\"},\
    \"value\":21},{\"labels\":{\"kind\":\"entry\"},\"value\":22},\
    {\"labels\":{\"kind\":\"restore\"},\"value\":23}]}]}";

#[test]
fn telemetry_json_bytes_are_pinned() {
    let t = golden();
    let text = t.to_json_string();
    assert_eq!(text, GOLDEN_JSON);
    let back = Telemetry::from_json(&json::parse(&text).expect("parses")).expect("reads back");
    assert_eq!(back, t);
}

#[test]
fn registry_prometheus_bytes_are_pinned() {
    assert_eq!(monitor::registry(&golden()).to_prometheus(), GOLDEN_PROM);
}

#[test]
fn registry_json_bytes_are_pinned() {
    assert_eq!(monitor::registry(&golden()).to_json(), GOLDEN_REGISTRY_JSON);
}

/// Merging the document with itself doubles every summed counter and keeps
/// every high-water mark (`status`, `max_live_stubs`, `end_cycle`).
#[test]
fn merged_json_bytes_are_pinned() {
    let merged = Telemetry::merge(&[golden(), golden()]);
    assert_eq!(merged.to_json_string(), GOLDEN_MERGED_JSON);
}

const GOLDEN_MERGED_JSON: &str = "{\"schema\":2,\"name\":\"golden/img.sqsh\",\"docs\":6,\"trace_drops\":102,\
    \"run\":{\"status\":3,\"instructions\":2000002,\"cycles\":2469134,\"output_bytes\":84},\
    \"runtime\":{\"decompressions\":202,\"skipped\":204,\"stub_hits\":206,\
    \"stub_allocs\":208,\"restores\":210,\"max_live_stubs\":9,\"bits_read\":214,\
    \"insts_written\":216,\"cycles_charged\":100000,\"hits\":220,\"misses\":222,\
    \"evictions\":224,\"regions_verified\":226,\"checksum_cycles\":228,\
    \"ref_fallbacks\":230},\"icache\":{\"hits\":1800,\"misses\":200,\"flushes\":22,\
    \"miss_ratio\":0.1},\"stages\":[{\"name\":\"encode\",\"wall_ns\":602,\"items\":604,\
    \"output_bytes\":606,\"note\":\"bytes \\\"blob\\\"\"},{\"name\":\"plan\",\
    \"wall_ns\":402,\"items\":404,\"output_bytes\":406,\"note\":\"regions\"}],\
    \"faults\":[{\"kind\":\"region_checksum\",\"count\":82},{\"kind\":\"truncated_stream\",\
    \"count\":84}],\"attribution\":{\"regions\":[{\"region\":1,\"decompressions\":802,\
    \"hits\":804,\"evictions\":806,\"decomp_cycles\":808,\"hit_cycles\":810,\
    \"stub_cycles\":812,\"residency_cycles\":814,\"residency_intervals\":816},{\"region\":7,\
    \"decompressions\":1002,\"hits\":1004,\"evictions\":1006,\"decomp_cycles\":1008,\
    \"hit_cycles\":1010,\"stub_cycles\":1012,\"residency_cycles\":1014,\
    \"residency_intervals\":1016}],\"sites\":[{\"site\":65544,\"creates\":1202,\
    \"reuses\":1204,\"frees\":1206,\"cycles\":1208},{\"site\":458764,\"creates\":1402,\
    \"reuses\":1404,\"frees\":1406,\"cycles\":1408}],\"trap_interarrival\":[62,64,66],\
    \"traps\":{\"create_stub\":42,\"entry\":44,\"restore\":46},\"attributed_cycles\":80000,\
    \"end_cycle\":1234560},\"coverage\":{\"attributed_cycles\":80000,\
    \"untracked_cycles\":20000}}";
