// Fixture: lint allows without a reason, in both attribute forms. Clippy
// must report every line marked `//~` and no other.

#[allow(clippy::too_many_arguments)] //~
pub fn unreasoned(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) -> u8 {
    a + b + c + d + e + f + g + h
}

#[cfg_attr(all(), allow(dead_code))] //~
fn conditional_allow() {}
