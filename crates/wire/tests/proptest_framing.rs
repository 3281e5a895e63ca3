//! Property tests for envelope framing: an arbitrary valid envelope
//! must decode to the same address, report bytes and trace context
//! whichever mode packed it — the zero-copy binary frame is an
//! encoding of the XML envelope, not a different protocol.

use std::borrow::Cow;

use proptest::prelude::*;

use inca_obs::TraceContext;
use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_wire::envelope::{Envelope, EnvelopeMode, EnvelopeView};

fn value_strategy() -> impl Strategy<Value = String> {
    // Includes XML-hostile characters so escaping differences between
    // the modes would surface.
    proptest::string::string_regex("[a-z0-9<>&\"' ]{1,24}").unwrap()
}

fn trace_strategy() -> impl Strategy<Value = Option<TraceContext>> {
    proptest::option::of((any::<u64>(), any::<u64>()).prop_map(|(t, s)| TraceContext {
        trace_id: t,
        parent_span_id: s,
    }))
}

fn envelope_strategy() -> impl Strategy<Value = Envelope> {
    (
        proptest::sample::select(vec!["a", "b.c", "version.pkg"]),
        proptest::sample::select(vec!["m1", "m2"]),
        proptest::sample::select(vec!["sdsc", "ncsa"]),
        value_strategy(),
        trace_strategy(),
    )
        .prop_map(|(reporter, resource, site, payload, trace)| {
            let address: BranchId = format!(
                "reporter={reporter},resource={resource},site={site},vo=tg"
            )
            .parse()
            .unwrap();
            let report = ReportBuilder::new(reporter, "1.0")
                .host(resource)
                .gmt(Timestamp::from_secs(0))
                .body_value("v", &payload)
                .success()
                .unwrap()
                .to_xml();
            let mut env = Envelope::new(address, report);
            if let Some(ctx) = trace {
                env = env.with_trace(ctx);
            }
            env
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_modes_decode_to_the_same_envelope(env in envelope_strategy()) {
        for mode in [EnvelopeMode::Body, EnvelopeMode::Binary] {
            let decoded = Envelope::decode(&env.encode(mode)).unwrap();
            prop_assert_eq!(&decoded, &env, "mode {:?} not a faithful encoding", mode);
        }
    }

    #[test]
    fn view_agrees_with_full_decode_in_every_mode(env in envelope_strategy()) {
        for mode in [EnvelopeMode::Body, EnvelopeMode::Binary] {
            let payload = env.encode(mode);
            let view = EnvelopeView::decode(&payload).unwrap();
            prop_assert_eq!(&view.address, &env.address);
            prop_assert_eq!(view.report_xml.as_ref(), env.report_xml.as_str());
            prop_assert_eq!(view.trace, env.trace);
            // Only the binary path may skip full validation — and only
            // it is allowed to borrow from the payload.
            match mode {
                EnvelopeMode::Binary => {
                    prop_assert!(!view.validated);
                    prop_assert!(matches!(view.report_xml, Cow::Borrowed(_)));
                }
                _ => prop_assert!(view.validated),
            }
            prop_assert_eq!(&view.into_envelope(), &env);
        }
    }

    #[test]
    fn truncated_binary_frames_never_decode(env in envelope_strategy(), cut in 1usize..32) {
        let payload = env.encode(EnvelopeMode::Binary);
        let cut = cut.min(payload.len() - 1);
        let truncated = &payload[..payload.len() - cut];
        if truncated.len() < 3 {
            return Ok(());
        }
        // A truncated frame must fail loudly — never decode to a
        // *different* report or address. The single clean-decode case
        // is a cut landing exactly on a section boundary, which can
        // only drop the optional trailing trace section whole.
        match EnvelopeView::decode(truncated) {
            Err(_) => {}
            Ok(view) => {
                prop_assert!(env.trace.is_some(), "cut inside required sections must error");
                prop_assert_eq!(&view.address, &env.address);
                prop_assert_eq!(view.report_xml.as_ref(), env.report_xml.as_str());
                prop_assert_eq!(view.trace, None);
            }
        }
    }
}
