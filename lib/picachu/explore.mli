(** Design-space exploration over the CGRA configuration.

    The paper leans on DSE frameworks (OpenCGRA, APEX, VecPAC) to justify
    its heterogeneous 4x4 operating point; this module reproduces that kind
    of study: sweep grid sizes and CoT shares, evaluate each point's
    geomean kernel throughput over the Table 1 library and its silicon
    area, and extract the Pareto frontier.

    Throughput is elements per cycle at a 1024-element pass, geomean over
    kernels; area is the CGRA cost model's figure. *)

type point = {
  rows : int;
  cols : int;
  cot_share : float;
  backend : Picachu_ir.Kernels.backend;
      (** approximation backend the roster was authored with *)
  arch_name : string;
  area_mm2 : float;
  geomean_throughput : float;  (** elements/cycle, geomean over kernels *)
  perf_per_area : float;
}

val kernel_roster :
  ?backend:Picachu_ir.Kernels.backend -> unit -> Picachu_ir.Kernel.t list
(** The kernels a design point is scored on: the full library authored with
    [backend] (default Taylor), minus [softmax_online] (same numerics as
    [softmax], kept out so the streaming variant does not double-weight the
    geomean).  Exposed so callers can compile exactly the scored set. *)

val arch_area : Picachu_cgra.Arch.t -> float
(** {!Picachu_cgra.Cost.cgra_cost} area plus the per-LUT-tile ROM capacity
    delta against {!Picachu_cgra.Arch.default_lut_capacity_bytes}, priced by
    {!Picachu_cgra.Cost.lut_rom_cost}.  Exactly the cost-model figure at the
    default capacity; shrinking the ROM budget is a real area saving, growing
    it a real cost — the knob the co-design search trades against mapping
    feasibility. *)

val evaluate_arch :
  ?backend:Picachu_ir.Kernels.backend ->
  Picachu_cgra.Arch.t ->
  point
(** Compile the kernel library onto an arbitrary architecture instance and
    measure.  [rows]/[cols] are read off the instance and [cot_share] is the
    measured CoT fraction of its non-corner tiles; area is {!arch_area}.
    Raises like {!evaluate}. *)

val evaluate :
  ?backend:Picachu_ir.Kernels.backend ->
  rows:int ->
  cols:int ->
  cot_share:float ->
  unit ->
  point
(** [evaluate_arch] on [Arch.hetero_mix ~rows ~cols ~cot_share], with the
    requested share as the point's label. Raises
    {!Picachu_cgra.Mapper.Unmappable} only if some kernel cannot map at any
    candidate unroll factor (kernels that fail are skipped; a point where
    *no* kernel maps raises).  The roster is deduplicated by
    {!Picachu_ir.Kernel_text.structural_digest} before fan-out, so structurally
    shared kernels compile once per point.  Compiles go through the
    content-addressed cache ({!Compiler.memo_result}); call
    {!Compiler.cache_clear} first to measure genuine compiles. *)

val sweep :
  ?sizes:(int * int) list ->
  ?cot_shares:float list ->
  ?backends:Picachu_ir.Kernels.backend list ->
  unit ->
  point list
(** Default: sizes {3x3, 4x4, 4x8, 5x5} x CoT shares {1/3, 1/2, 2/3, 5/6},
    Taylor backend only.  [backends] adds an outer per-operator-backend
    axis: the full grid is swept once per backend, each sweep compiling the
    roster authored with that backend's kernels.
    Design points that share an architecture digest (CoT shares rounding to
    the same tile mix) evaluate once and are relabeled per share.  Distinct
    points evaluate in parallel across the domain pool; results are
    pool-size independent. *)

val pareto : point list -> point list
(** Points not dominated in (throughput up, area down), in area order. *)

val reference_point : unit -> point
(** The paper's operating point: 4x4 at a 2/3 CoT share. *)
