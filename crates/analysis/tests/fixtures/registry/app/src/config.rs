//! Reads one documented and one rogue knob.

pub fn window() -> usize {
    std::env::var("ASV_GOOD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

pub fn rogue_enabled() -> bool {
    std::env::var("ASV_ROGUE").is_ok()
}
