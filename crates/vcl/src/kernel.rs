//! Kernel definitions, arguments and programs.
//!
//! A kernel in this runtime is a per-work-item Rust closure (the OpenCL
//! kernel function), optionally paired with a *group body* that computes a
//! whole range of work-groups at once, plus a [`KernelProfile`] describing
//! its cost and an argument signature separating input buffers, output
//! buffers and scalars. The per-item body defines the kernel's semantics;
//! a group body is a host-side speed-up that must store bit-identical
//! values to exactly the same elements (the sanitizer's
//! `group-body-divergence` rule checks this), so the executor may run
//! either. The signature is what FluidiCL's "simple compiler analysis at
//! the whole variable level" (paper §4.1) provides in the original system:
//! it tells the runtime which buffers a kernel modifies (`out`/`inout`)
//! and therefore which buffers need extra copies, merging and
//! device-to-host transfers.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use fluidicl_hetsim::KernelProfile;

use crate::footprint::AccessPattern;
use crate::{BufferId, ClError, ClResult, NdRange, WorkItem};

/// Role of one kernel argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArgRole {
    /// Buffer read by the kernel.
    In,
    /// Buffer written (fully overwritten per work-item) by the kernel.
    Out,
    /// Buffer both read and written by the kernel.
    InOut,
    /// Scalar value.
    Scalar,
}

impl ArgRole {
    /// Whether the argument is a buffer the kernel may modify.
    pub fn is_output(self) -> bool {
        matches!(self, ArgRole::Out | ArgRole::InOut)
    }

    /// Whether the argument is a buffer (of any role).
    pub fn is_buffer(self) -> bool {
        !matches!(self, ArgRole::Scalar)
    }
}

/// Declared signature entry of a kernel argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgSpec {
    /// Argument name, for diagnostics.
    pub name: String,
    /// Argument role.
    pub role: ArgRole,
    /// Declared per-item element-access shape (reads for `In`, writes for
    /// `Out`, both for `InOut`); `None` means no static footprint is
    /// available for this argument.
    pub access: Option<AccessPattern>,
}

impl ArgSpec {
    /// Creates a signature entry with no access declaration.
    pub fn new(name: impl Into<String>, role: ArgRole) -> Self {
        ArgSpec {
            name: name.into(),
            role,
            access: None,
        }
    }

    /// Declares the per-item [`AccessPattern`] of this argument, enabling
    /// symbolic footprints ([`KernelDef::write_footprints`]) for launches
    /// of the kernel.
    #[must_use]
    pub fn with_access(mut self, pattern: AccessPattern) -> Self {
        self.access = Some(pattern);
        self
    }
}

/// Actual argument value supplied at launch time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelArg {
    /// A buffer handle.
    Buffer(BufferId),
    /// A 32-bit signed integer scalar.
    I32(i32),
    /// A 32-bit float scalar.
    F32(f32),
    /// A pointer-sized scalar (problem sizes).
    Usize(usize),
}

/// Scalar arguments of one launch, accessible from the kernel body.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scalars {
    values: Vec<KernelArg>,
    /// Kernel name and declared scalar-argument names, carried so a
    /// mistyped or missing scalar access panics with a message that points
    /// at the offending kernel rather than a bare index.
    kernel: String,
    names: Vec<String>,
}

impl Scalars {
    pub(crate) fn from_args(kernel: &str, args: &[KernelArg], spec: &[ArgSpec]) -> Self {
        let mut values = Vec::new();
        let mut names = Vec::new();
        for (s, a) in spec.iter().zip(args) {
            if s.role == ArgRole::Scalar {
                values.push(*a);
                names.push(s.name.clone());
            }
        }
        Scalars {
            values,
            kernel: kernel.to_string(),
            names,
        }
    }

    /// The `idx`-th scalar and its declared name.
    ///
    /// # Panics
    ///
    /// Panics with the kernel and argument context if `idx` is out of
    /// range.
    fn get(&self, idx: usize, want: &str) -> (KernelArg, &str) {
        match self.values.get(idx) {
            Some(v) => (*v, self.names.get(idx).map_or("?", String::as_str)),
            None => panic!(
                "kernel `{}`: scalar index {idx} out of range ({} scalar arg(s) declared), \
                 wanted {want}",
                self.kernel,
                self.values.len()
            ),
        }
    }

    /// The `idx`-th scalar argument as `i32`.
    ///
    /// # Panics
    ///
    /// Panics — naming the kernel and the declared argument — if the
    /// argument is absent or not an `I32`.
    pub fn i32(&self, idx: usize) -> i32 {
        match self.get(idx, "i32") {
            (KernelArg::I32(v), _) => v,
            (other, name) => panic!(
                "kernel `{}`: scalar arg `{name}` (index {idx}) is {other:?}, not i32",
                self.kernel
            ),
        }
    }

    /// The `idx`-th scalar argument as `f32`.
    ///
    /// # Panics
    ///
    /// Panics — naming the kernel and the declared argument — if the
    /// argument is absent or not an `F32`.
    pub fn f32(&self, idx: usize) -> f32 {
        match self.get(idx, "f32") {
            (KernelArg::F32(v), _) => v,
            (other, name) => panic!(
                "kernel `{}`: scalar arg `{name}` (index {idx}) is {other:?}, not f32",
                self.kernel
            ),
        }
    }

    /// The `idx`-th scalar argument as `usize`.
    ///
    /// # Panics
    ///
    /// Panics — naming the kernel and the declared argument — if the
    /// argument is absent or not a `Usize`.
    pub fn usize(&self, idx: usize) -> usize {
        match self.get(idx, "usize") {
            (KernelArg::Usize(v), _) => v,
            (other, name) => panic!(
                "kernel `{}`: scalar arg `{name}` (index {idx}) is {other:?}, not usize",
                self.kernel
            ),
        }
    }

    /// Number of scalar arguments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no scalar arguments.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Read-only buffers of one launch, in signature order among `In` arguments.
pub struct Inputs<'a> {
    slices: Vec<&'a [f32]>,
    /// When present, `get` marks which input buffers the kernel actually
    /// touched — the access sanitizer uses this to flag declared-but-unread
    /// `In` arguments. `None` in normal execution, so the fast path pays
    /// nothing.
    read_flags: Option<std::cell::RefCell<Vec<bool>>>,
}

impl<'a> Inputs<'a> {
    pub(crate) fn new(slices: Vec<&'a [f32]>) -> Self {
        Inputs {
            slices,
            read_flags: None,
        }
    }

    pub(crate) fn with_read_tracking(slices: Vec<&'a [f32]>) -> Self {
        let flags = vec![false; slices.len()];
        Inputs {
            slices,
            read_flags: Some(std::cell::RefCell::new(flags)),
        }
    }

    pub(crate) fn reads(&self) -> Option<Vec<bool>> {
        self.read_flags.as_ref().map(|f| f.borrow().clone())
    }

    /// The `idx`-th input buffer.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> &[f32] {
        if let Some(flags) = &self.read_flags {
            flags.borrow_mut()[idx] = true;
        }
        self.slices[idx]
    }

    /// Number of input buffers.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether there are no input buffers.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

/// Writable buffers of one launch (`Out` and `InOut`), in signature order.
pub struct Outputs<'a> {
    slices: Vec<&'a mut [f32]>,
}

impl<'a> Outputs<'a> {
    pub(crate) fn new(slices: Vec<&'a mut [f32]>) -> Self {
        Outputs { slices }
    }

    /// Mutable access to the `idx`-th output buffer. `InOut` buffers can be
    /// read through the same slice.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn at(&mut self, idx: usize) -> &mut [f32] {
        self.slices[idx]
    }

    /// Read-only access to the `idx`-th output buffer (for `InOut` reads).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn read(&self, idx: usize) -> &[f32] {
        self.slices[idx]
    }

    /// Number of output buffers.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether there are no output buffers.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

/// Per-work-item kernel function.
pub type KernelBody = dyn Fn(&WorkItem, &Scalars, &Inputs<'_>, &mut Outputs<'_>) + Send + Sync;

/// Work-group range kernel function: computes every work-item of the
/// flattened work-groups `groups` (a contiguous, possibly empty, sub-range
/// of the launch — one wave or subkernel).
///
/// It must write exactly the elements the per-item body writes for those
/// groups, with bit-identical values, for any local size and any range —
/// typically by reordering loops so that each output element still sums
/// its terms in the per-item order.
pub type GroupBody =
    dyn Fn(&NdRange, Range<u64>, &Scalars, &Inputs<'_>, &mut Outputs<'_>) + Send + Sync;

/// One implementation of a kernel: a body plus its cost profile.
///
/// FluidiCL's online profiling (paper §6.6) selects among several versions
/// with identical signatures and semantics but different device affinities —
/// e.g. a loop-interchanged CPU version with better cache locality.
#[derive(Clone)]
pub struct KernelVersion {
    /// Human-readable label ("baseline", "loop-interchanged", ...).
    pub label: String,
    /// Per-work-item function: the kernel's semantics and the oracle for
    /// `group_body`.
    pub body: Arc<KernelBody>,
    /// Optional work-group range function the executor runs instead of
    /// looping `body` over the range's items.
    pub group_body: Option<Arc<GroupBody>>,
    /// Cost profile of this implementation.
    pub profile: KernelProfile,
}

impl fmt::Debug for KernelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelVersion")
            .field("label", &self.label)
            .field("profile", &self.profile)
            .field("group_body", &self.group_body.is_some())
            .finish_non_exhaustive()
    }
}

/// A named kernel: signature plus one or more implementations.
#[derive(Clone, Debug)]
pub struct KernelDef {
    name: String,
    args: Vec<ArgSpec>,
    versions: Vec<KernelVersion>,
}

impl KernelDef {
    /// Creates a kernel with its default implementation (version 0).
    pub fn new(
        name: impl Into<String>,
        args: Vec<ArgSpec>,
        profile: KernelProfile,
        body: impl Fn(&WorkItem, &Scalars, &Inputs<'_>, &mut Outputs<'_>) + Send + Sync + 'static,
    ) -> Self {
        KernelDef {
            name: name.into(),
            args,
            versions: vec![KernelVersion {
                label: "baseline".to_string(),
                body: Arc::new(body),
                group_body: None,
                profile,
            }],
        }
    }

    /// Adds an alternate implementation (same signature and semantics) for
    /// online profiling to choose from (paper §6.6).
    #[must_use]
    pub fn with_version(
        mut self,
        label: impl Into<String>,
        profile: KernelProfile,
        body: impl Fn(&WorkItem, &Scalars, &Inputs<'_>, &mut Outputs<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.versions.push(KernelVersion {
            label: label.into(),
            body: Arc::new(body),
            group_body: None,
            profile,
        });
        self
    }

    /// Attaches a [`GroupBody`] to the most recently added version. The
    /// executor then runs it once per executed work-group range instead of
    /// the per-item body, which stays the semantic definition (and the
    /// sanitizer's oracle).
    #[must_use]
    pub fn with_group_body(
        mut self,
        body: impl Fn(&NdRange, Range<u64>, &Scalars, &Inputs<'_>, &mut Outputs<'_>)
            + Send
            + Sync
            + 'static,
    ) -> Self {
        let version = self.versions.last_mut().expect("a kernel has a version");
        version.group_body = Some(Arc::new(body));
        self
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared argument signature.
    pub fn args(&self) -> &[ArgSpec] {
        &self.args
    }

    /// All implementations; index 0 is the default.
    pub fn versions(&self) -> &[KernelVersion] {
        &self.versions
    }

    /// The default implementation.
    pub fn default_version(&self) -> &KernelVersion {
        &self.versions[0]
    }

    /// Validates a launch argument list against the signature and resolves
    /// the buffer classification: `(inputs, outputs, scalars)` where
    /// `outputs` contains `Out` and `InOut` buffers in signature order.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::ArgMismatch`] if the list does not match the
    /// signature, or [`ClError::AliasedBuffer`] if one buffer appears both
    /// as an input and an output (or twice as an output).
    pub fn classify_args(
        &self,
        args: &[KernelArg],
    ) -> ClResult<(Vec<BufferId>, Vec<BufferId>, Scalars)> {
        if args.len() != self.args.len() {
            return Err(ClError::ArgMismatch {
                kernel: self.name.clone(),
                detail: format!("expected {} args, got {}", self.args.len(), args.len()),
            });
        }
        let mut ins = Vec::new();
        let mut outs = Vec::new();
        for (spec, arg) in self.args.iter().zip(args) {
            match (spec.role, arg) {
                (ArgRole::In, KernelArg::Buffer(id)) => ins.push(*id),
                (ArgRole::Out | ArgRole::InOut, KernelArg::Buffer(id)) => outs.push(*id),
                (ArgRole::Scalar, KernelArg::Buffer(_)) => {
                    return Err(ClError::ArgMismatch {
                        kernel: self.name.clone(),
                        detail: format!("arg `{}` should be a scalar", spec.name),
                    });
                }
                (ArgRole::Scalar, _) => {}
                (_, other) => {
                    return Err(ClError::ArgMismatch {
                        kernel: self.name.clone(),
                        detail: format!("arg `{}` should be a buffer, got {other:?}", spec.name),
                    });
                }
            }
        }
        for (i, out) in outs.iter().enumerate() {
            if ins.contains(out) {
                return Err(ClError::AliasedBuffer(out.0));
            }
            if outs[..i].contains(out) {
                return Err(ClError::AliasedBuffer(out.0));
            }
        }
        Ok((ins, outs, Scalars::from_args(&self.name, args, &self.args)))
    }
}

/// A compiled program: a registry of kernels, shared by every device
/// (`clBuildProgram` in FluidiCL compiles for both devices — paper §4.1).
#[derive(Clone, Debug, Default)]
pub struct Program {
    kernels: HashMap<String, Arc<KernelDef>>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a kernel, replacing any previous kernel of the same name.
    pub fn register(&mut self, kernel: KernelDef) {
        self.kernels
            .insert(kernel.name().to_string(), Arc::new(kernel));
    }

    /// Looks up a kernel by name.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::UnknownKernel`] if absent.
    pub fn kernel(&self, name: &str) -> ClResult<Arc<KernelDef>> {
        self.kernels
            .get(name)
            .cloned()
            .ok_or_else(|| ClError::UnknownKernel(name.to_string()))
    }

    /// Iterates over registered kernel names.
    pub fn kernel_names(&self) -> impl Iterator<Item = &str> {
        self.kernels.keys().map(String::as_str)
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the program has no kernels.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy_kernel() -> KernelDef {
        KernelDef::new(
            "copy",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            KernelProfile::new("copy"),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let i = item.global[0];
                if i < n {
                    outs.at(0)[i] = ins.get(0)[i];
                }
            },
        )
    }

    #[test]
    fn classify_separates_roles() {
        let k = copy_kernel();
        let (ins, outs, scalars) = k
            .classify_args(&[
                KernelArg::Buffer(BufferId(1)),
                KernelArg::Buffer(BufferId(2)),
                KernelArg::Usize(8),
            ])
            .unwrap();
        assert_eq!(ins, vec![BufferId(1)]);
        assert_eq!(outs, vec![BufferId(2)]);
        assert_eq!(scalars.usize(0), 8);
    }

    #[test]
    fn classify_rejects_wrong_arity() {
        let k = copy_kernel();
        let err = k.classify_args(&[KernelArg::Usize(8)]).unwrap_err();
        assert!(matches!(err, ClError::ArgMismatch { .. }));
    }

    #[test]
    fn classify_rejects_scalar_for_buffer() {
        let k = copy_kernel();
        let err = k
            .classify_args(&[
                KernelArg::I32(0),
                KernelArg::Buffer(BufferId(2)),
                KernelArg::Usize(8),
            ])
            .unwrap_err();
        assert!(matches!(err, ClError::ArgMismatch { .. }));
    }

    #[test]
    fn classify_rejects_buffer_for_scalar() {
        let k = copy_kernel();
        let err = k
            .classify_args(&[
                KernelArg::Buffer(BufferId(1)),
                KernelArg::Buffer(BufferId(2)),
                KernelArg::Buffer(BufferId(3)),
            ])
            .unwrap_err();
        assert!(matches!(err, ClError::ArgMismatch { .. }));
    }

    #[test]
    fn classify_rejects_aliasing() {
        let k = copy_kernel();
        let err = k
            .classify_args(&[
                KernelArg::Buffer(BufferId(1)),
                KernelArg::Buffer(BufferId(1)),
                KernelArg::Usize(8),
            ])
            .unwrap_err();
        assert_eq!(err, ClError::AliasedBuffer(1));
    }

    #[test]
    fn versions_accumulate() {
        let k = copy_kernel().with_version(
            "alt",
            KernelProfile::new("copy-alt").cpu_cache_locality(0.9),
            |_, _, _, _| {},
        );
        assert_eq!(k.versions().len(), 2);
        assert_eq!(k.default_version().label, "baseline");
        assert_eq!(k.versions()[1].label, "alt");
    }

    #[test]
    fn group_body_attaches_to_the_latest_version() {
        let k = copy_kernel()
            .with_version("alt", KernelProfile::new("copy-alt"), |_, _, _, _| {})
            .with_group_body(|_, _, _, _, _| {});
        assert!(k.versions()[0].group_body.is_none());
        assert!(k.versions()[1].group_body.is_some());
    }

    #[test]
    fn program_registry_lookups() {
        let mut p = Program::new();
        assert!(p.is_empty());
        p.register(copy_kernel());
        assert_eq!(p.len(), 1);
        assert!(p.kernel("copy").is_ok());
        assert_eq!(
            p.kernel("nope").unwrap_err(),
            ClError::UnknownKernel("nope".to_string())
        );
        assert_eq!(p.kernel_names().collect::<Vec<_>>(), vec!["copy"]);
    }

    #[test]
    #[should_panic(expected = "kernel `copy`: scalar arg `x` (index 0) is I32(1), not f32")]
    fn scalar_type_mismatch_panics_with_kernel_and_arg_name() {
        let s = Scalars::from_args(
            "copy",
            &[KernelArg::I32(1)],
            &[ArgSpec::new("x", ArgRole::Scalar)],
        );
        let _ = s.f32(0);
    }

    #[test]
    #[should_panic(expected = "kernel `copy`: scalar index 1 out of range (1 scalar arg(s)")]
    fn scalar_index_out_of_range_panics_with_kernel_name() {
        let s = Scalars::from_args(
            "copy",
            &[KernelArg::Usize(4)],
            &[ArgSpec::new("n", ArgRole::Scalar)],
        );
        let _ = s.usize(1);
    }
}
