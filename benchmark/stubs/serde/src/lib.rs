//! Offline stand-in for `serde`, used only by the `benchmark/` workspace.
//!
//! The measured crates derive `Serialize`/`Deserialize` on their data
//! types but every measured path (wire protocol, WAL codec, Chrome-trace
//! export) is hand-rolled and never serialises through serde. The
//! derives therefore expand to nothing; `#[serde(...)]` helper
//! attributes are accepted and ignored. The matching `serde_json`
//! stand-in fails loudly if anything tries to serialise at run time.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
