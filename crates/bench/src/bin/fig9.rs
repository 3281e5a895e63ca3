//! Regenerates Figure 9: depot response + XML processing time vs cache
//! size (0.928-5.4 MB) and report size (851-45,527 B). INCA_REPS sets
//! replays per cell (default 25). Set INCA_MODE=binary for the §5.2.2
//! ablation (raw report bytes in a binary frame instead of escaped into
//! the envelope body).
fn main() {
    inca_bench::init_tracing_from_args();
    let reps: usize =
        std::env::var("INCA_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    let mode = match std::env::var("INCA_MODE").as_deref() {
        Ok("binary") => inca_wire::envelope::EnvelopeMode::Binary,
        _ => inca_wire::envelope::EnvelopeMode::Body,
    };
    let cells = inca_core::experiments::fig9::run(reps, mode);
    print!("{}", inca_core::experiments::fig9::render(&cells));
}
