// Fixture: the near-misses. Every allow and expect states its reason.
// Clippy must report nothing.

#[allow(
    clippy::too_many_arguments,
    reason = "recursion threads the whole split context; a struct would only rename the list"
)]
pub fn reasoned(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) -> u8 {
    a + b + c + d + e + f + g + h
}

#[cfg_attr(all(), allow(dead_code, reason = "kept for a later caller"))]
fn conditional_allow() {}

#[expect(dead_code, reason = "an expectation states its reason too")]
fn expected() {}
