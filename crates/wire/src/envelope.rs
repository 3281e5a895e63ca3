//! The SOAP-analog envelope between centralized controller and depot.
//!
//! "It then creates a XML envelope, where the content of the envelope is
//! the report and the envelope address is the branch identifier. The
//! envelope is forwarded to the depot through a Web services interface"
//! (§3.2.1). Section 5.2.2 measures the cost of this interface:
//! unpacking the envelope grows with report size ("it takes almost 3
//! seconds to unpack the SOAP envelope and get the largest report ready
//! for addition to the cache"), and the paper proposes shipping reports
//! "as SOAP attachment rather than in the body of the SOAP envelope in
//! order to speed up the unpacking process".
//!
//! Both modes are implemented so the ablation bench can quantify the
//! saving:
//!
//! * [`EnvelopeMode::Body`] — the report is escaped into the envelope
//!   body; unpacking must unescape it and re-parse/validate the result
//!   (cost ∝ report size, as measured in Figure 9).
//! * [`EnvelopeMode::Binary`] — the [`crate::binframe`] section format,
//!   which carries out the §5.2.2 proposal: the raw report bytes ride
//!   behind a small header, and the decoder borrows them straight out
//!   of the payload (zero copy), deferring XML parsing entirely; see
//!   [`EnvelopeView`].
//!
//! Negotiation is per payload: a binary frame announces itself with a
//! magic byte no XML document can start with, so a single decoder
//! ([`EnvelopeView::decode`]) handles mixed traffic.

use std::borrow::Cow;

use inca_obs::TraceContext;
use inca_report::{BranchId, Report};
use inca_xml::{escape::escape_text, skim_balanced, Element};

use crate::binframe;
use crate::message::WireError;

/// How the report is packed into the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvelopeMode {
    /// Report escaped into the envelope body (2004 behaviour).
    Body,
    /// Report framed as raw bytes behind binary section headers, with
    /// zero-copy decode (the paper's proposed optimization; see
    /// [`crate::binframe`]).
    Binary,
}

/// An addressed report in transit to the depot.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The branch identifier — "the envelope address".
    pub address: BranchId,
    /// The serialized report — "the content of the envelope".
    pub report_xml: String,
    /// Trace context of the accept that produced the envelope, carried
    /// as an optional `trace` attribute so the depot's spans join the
    /// report's trace.
    pub trace: Option<TraceContext>,
}

impl Envelope {
    /// Creates an envelope around an already-serialized report.
    pub fn new(address: BranchId, report_xml: impl Into<String>) -> Envelope {
        Envelope { address, report_xml: report_xml.into(), trace: None }
    }

    /// Attaches a trace context to carry to the depot.
    pub fn with_trace(mut self, ctx: TraceContext) -> Envelope {
        self.trace = Some(ctx);
        self
    }

    /// Packs the envelope for the wire in the given mode.
    pub fn encode(&self, mode: EnvelopeMode) -> Vec<u8> {
        match mode {
            EnvelopeMode::Body => {
                let trace_attr =
                    self.trace.map_or(String::new(), |ctx| format!(" trace=\"{ctx}\""));
                format!(
                    "<soapEnvelope mode=\"body\"{trace_attr}><address>{}</address><body>{}</body></soapEnvelope>",
                    escape_text(&self.address.to_string()),
                    escape_text(&self.report_xml),
                )
                .into_bytes()
            }
            EnvelopeMode::Binary => binframe::encode_binary(
                &self.address.to_string(),
                self.report_xml.as_bytes(),
                self.trace,
            ),
        }
    }

    /// Unpacks an envelope into an owned copy, validating the
    /// contained report completely: [`EnvelopeView::decode`] plus a
    /// full parse of a binary frame's report (the view only skims it).
    pub fn decode(payload: &[u8]) -> Result<Envelope, WireError> {
        let view = EnvelopeView::decode(payload)?;
        if !view.validated {
            Report::parse(&view.report_xml).map_err(|e| WireError::BadReport(e.to_string()))?;
        }
        Ok(view.into_envelope())
    }
}

/// A decoded envelope that borrows its report bytes when it can.
///
/// This is the depot's receive-side view. For binary frames the report
/// is a borrowed slice of the incoming payload, checked only by a
/// structural skim ([`inca_xml::skim_balanced`]: balanced tags, root is
/// `<incaReport>`) — full parsing is deferred to archive/query time.
/// XML envelopes are the expensive path the paper measured: the whole
/// envelope is tokenized, the body unescaped into an owned string, and
/// the inner report re-parsed for validation.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeView<'a> {
    /// The branch identifier — "the envelope address".
    pub address: BranchId,
    /// The serialized report: borrowed from the payload on the binary
    /// path, owned on the XML path.
    pub report_xml: Cow<'a, str>,
    /// Trace context carried with the report, if any.
    pub trace: Option<TraceContext>,
    /// Whether the report was fully parsed during decode (XML path) or
    /// only structurally skimmed (binary path).
    pub validated: bool,
}

impl<'a> EnvelopeView<'a> {
    /// Decodes any supported frame, borrowing report bytes from binary
    /// frames and unpacking the XML body envelope otherwise.
    pub fn decode(payload: &'a [u8]) -> Result<EnvelopeView<'a>, WireError> {
        if binframe::is_binary_frame(payload) {
            let frame = binframe::decode_binary(payload)?;
            let address: BranchId =
                frame.address.parse().map_err(|e| WireError::BadBranch(format!("{e}")))?;
            let report = std::str::from_utf8(frame.report)
                .map_err(|e| WireError::Malformed(format!("report not UTF-8: {e}")))?;
            // The cache must never hold garbage: one cheap structural
            // pass, no tree, no unescape, no copy.
            let root =
                skim_balanced(report).map_err(|e| WireError::BadReport(e.to_string()))?;
            if root != "incaReport" {
                return Err(WireError::BadReport(format!(
                    "expected <incaReport> root, found <{root}>"
                )));
            }
            return Ok(EnvelopeView {
                address,
                report_xml: Cow::Borrowed(report),
                trace: frame.trace,
                validated: false,
            });
        }
        let text = std::str::from_utf8(payload)
            .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
        let root = Element::parse(text)?;
        if root.name != "soapEnvelope" {
            return Err(WireError::Malformed(format!(
                "expected <soapEnvelope>, found <{}>",
                root.name
            )));
        }
        match root.attribute("mode") {
            Some("body") => {}
            Some(m) => {
                return Err(WireError::Malformed(format!("unsupported envelope mode {m:?}")))
            }
            None => return Err(WireError::Malformed("envelope missing mode attribute".into())),
        }
        let address: BranchId = root
            .child_text("address")
            .ok_or_else(|| WireError::Malformed("missing <address>".into()))?
            .parse()
            .map_err(|e| WireError::BadBranch(format!("{e}")))?;
        let report_xml = root
            .child_text("body")
            .ok_or_else(|| WireError::Malformed("missing <body>".into()))?;
        Report::parse(&report_xml).map_err(|e| WireError::BadReport(e.to_string()))?;
        Ok(EnvelopeView {
            address,
            report_xml: Cow::Owned(report_xml),
            // Diagnostic metadata only: a mangled trace attribute
            // degrades to `None`, it never rejects the envelope.
            trace: root.attribute("trace").and_then(|t| t.parse().ok()),
            validated: true,
        })
    }

    /// Converts into an owned [`Envelope`].
    pub fn into_envelope(self) -> Envelope {
        Envelope {
            address: self.address,
            report_xml: self.report_xml.into_owned(),
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::ReportBuilder;

    fn sample() -> Envelope {
        let report = ReportBuilder::new("version.srb", "1.0")
            .host("dslogin.sdsc.edu")
            .body_value("packageVersion", "3.2.1")
            .success()
            .unwrap();
        Envelope::new(
            "reporter=version.srb,resource=dslogin,site=sdsc,vo=teragrid".parse().unwrap(),
            report.to_xml(),
        )
    }

    #[test]
    fn body_mode_roundtrip() {
        let env = sample();
        let decoded = Envelope::decode(&env.encode(EnvelopeMode::Body)).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn binary_mode_roundtrip() {
        let env = sample();
        let decoded = Envelope::decode(&env.encode(EnvelopeMode::Binary)).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn view_borrows_binary_and_owns_xml() {
        let env = sample();
        let binary = env.encode(EnvelopeMode::Binary);
        let view = EnvelopeView::decode(&binary).unwrap();
        assert!(matches!(view.report_xml, Cow::Borrowed(_)));
        assert!(!view.validated);
        assert_eq!(view.report_xml, env.report_xml);
        assert_eq!(view.address, env.address);

        let body = env.encode(EnvelopeMode::Body);
        let view = EnvelopeView::decode(&body).unwrap();
        assert!(matches!(view.report_xml, Cow::Owned(_)));
        assert!(view.validated);
        assert_eq!(view.clone().into_envelope(), env);
    }

    #[test]
    fn view_rejects_unbalanced_or_wrong_root_binary_reports() {
        let broken = Envelope::new("a=1".parse().unwrap(), "<incaReport><x></incaReport>");
        assert!(matches!(
            EnvelopeView::decode(&broken.encode(EnvelopeMode::Binary)),
            Err(WireError::BadReport(_))
        ));
        let wrong_root = Envelope::new("a=1".parse().unwrap(), "<notAReport/>");
        assert!(matches!(
            EnvelopeView::decode(&wrong_root.encode(EnvelopeMode::Binary)),
            Err(WireError::BadReport(_))
        ));
    }

    #[test]
    fn trace_context_roundtrips_in_both_modes() {
        let ctx = TraceContext { trace_id: 0xfeed, parent_span_id: 0x42 };
        let env = sample().with_trace(ctx);
        for mode in [EnvelopeMode::Body, EnvelopeMode::Binary] {
            let decoded = Envelope::decode(&env.encode(mode)).unwrap();
            assert_eq!(decoded.trace, Some(ctx));
            assert_eq!(decoded, env);
        }
    }

    #[test]
    fn body_mode_grows_with_escaping() {
        // Every '<' in the report grows to '&lt;' etc., so the body
        // encoding is strictly larger than the raw-bytes binary frame.
        let env = sample();
        let body = env.encode(EnvelopeMode::Body).len();
        let binary = env.encode(EnvelopeMode::Binary).len();
        assert!(body > binary, "body {body} should exceed binary {binary}");
    }

    #[test]
    fn reports_with_special_chars_survive_both_modes() {
        let report = ReportBuilder::new("r", "1")
            .body_value("err", "a<b&c \"quoted\" 'single' &amp; literal")
            .success()
            .unwrap();
        let env = Envelope::new("a=1".parse().unwrap(), report.to_xml());
        for mode in [EnvelopeMode::Body, EnvelopeMode::Binary] {
            let decoded = Envelope::decode(&env.encode(mode)).unwrap();
            assert_eq!(decoded.report_xml, env.report_xml);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Envelope::decode(b"junk").is_err());
        assert!(Envelope::decode(b"<soapEnvelope mode=\"body\"/>").is_err());
        assert!(Envelope::decode(b"<other/>").is_err());
    }

    #[test]
    fn decode_rejects_invalid_inner_report() {
        let env = Envelope::new("a=1".parse().unwrap(), "<notAReport/>");
        for mode in [EnvelopeMode::Body, EnvelopeMode::Binary] {
            assert!(matches!(
                Envelope::decode(&env.encode(mode)),
                Err(WireError::BadReport(_))
            ));
        }
    }

    #[test]
    fn decode_rejects_bad_address() {
        let report_xml = sample().report_xml;
        let payload = format!(
            "<soapEnvelope mode=\"body\"><address>no-pairs-here</address><body>{}</body></soapEnvelope>",
            escape_text(&report_xml)
        );
        assert!(matches!(
            Envelope::decode(payload.as_bytes()),
            Err(WireError::BadBranch(_))
        ));
    }
}
