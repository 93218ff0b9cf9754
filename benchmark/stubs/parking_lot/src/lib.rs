//! Offline stand-in for `parking_lot`. `slackvm-hypervisor` declares the
//! dependency but no source file uses it, so this crate is empty.
