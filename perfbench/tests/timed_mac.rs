//! The timing wrapper must not change the program it measures, and the
//! benchmark must report exactly the metrics `BENCHMARK.json` declares.

use charisma::{Json, ProtocolKind, Scenario, SimConfig, UplinkMac};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{quantile, TimedMac};

#[test]
fn run_with_the_wrapper_equals_run_for_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let mut config = SimConfig::quick_test();
        config.num_voice = 40;
        config.num_data = 6;
        config.warmup_frames = 200;
        config.measured_frames = 1_500;
        config.request_queue = protocol.supports_request_queue();
        let scenario = Scenario::new(config.clone());

        let plain = scenario.run(protocol);
        let bare = protocol.build(&config);
        let mut timed = TimedMac::new(protocol.build(&config));
        assert_eq!(timed.name(), bare.name());
        assert_eq!(timed.kind(), bare.kind());
        assert_eq!(
            timed.supports_request_queue(),
            bare.supports_request_queue()
        );
        let traced = scenario.run_with(&mut timed);

        assert_eq!(plain, traced, "{protocol}: the wrapper changed the run");
        let stats = timed.stats();
        assert_eq!(stats.frames, config.total_frames(), "{protocol}");
        assert_eq!(stats.frame_ns.len() as u64, stats.frames, "{protocol}");
        assert_eq!(
            stats.member_frames,
            46 * config.total_frames(),
            "{protocol}"
        );
        assert!(stats.ns > 0, "{protocol}");
    }
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    let values = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&values, 0.0), 1.0);
    assert_eq!(quantile(&values, 0.5), 2.5);
    assert_eq!(quantile(&values, 1.0), 4.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
}
