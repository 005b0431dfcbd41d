type backend = Taylor | Nli
type variant = Picachu of backend | Baseline

let picachu = Picachu Taylor
let picachu_nli = Picachu Nli
let backend_name = function Taylor -> "taylor" | Nli -> "nli"

let variant_name = function
  | Picachu Taylor -> "picachu"
  | Picachu Nli -> "picachu-nli"
  | Baseline -> "baseline"

(* polynomial order of the kernel expansions, matching Taylor.default *)
let taylor_order = 6
let use_fp2fx = function Picachu _ -> true | Baseline -> false

(* the softmax-family exponential: argument is max-shifted (<= 0) *)
let exp_shifted_body b variant d =
  match variant with
  | Picachu Nli -> Builder.lut b "nli.exp" d
  | Picachu Taylor | Baseline -> Builder.exp_taylor b ~order:taylor_order d

let mk ~name ~klass ~loops ~inputs ~outputs ?(scalar_inputs = [ "n" ]) () =
  let k =
    { Kernel.name; klass; loops; inputs; outputs; scalar_inputs }
  in
  match Kernel.validate k with
  | Ok () -> k
  | Error e -> failwith ("Kernels." ^ name ^ ": " ^ e)

let relu variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let x = Builder.load b "x" in
  let z = Builder.const b 0.0 in
  let c = Builder.cmp b Op.Gt x z in
  let y = Builder.select b c x z in
  Builder.store b "y" y;
  let loop = Builder.finish b ~label:"relu.1" ~trip_input:"n" () in
  mk ~name:"relu" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let softmax variant =
  let fp2fx = use_fp2fx variant in
  (* loop 1: running maximum *)
  let b1 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b1 "x" in
  let neg_inf = Builder.const b1 (-1e30) in
  let _, m_next = Builder.reduce_simple b1 Op.Max ~init:neg_inf x in
  let l1 =
    Builder.finish b1 ~label:"softmax.1" ~reduction:true
      ~exports:[ ("m", m_next) ] ~trip_input:"n" ()
  in
  (* loop 2: numerator + running sum *)
  let b2 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b2 "x" in
  let m = Builder.input b2 "m" in
  let d = Builder.sub b2 x m in
  let e = exp_shifted_body b2 variant d in
  Builder.store b2 "e" e;
  let _, s_next = Builder.reduce_simple b2 Op.Add ~init:(Builder.const b2 0.0) e in
  let l2 =
    Builder.finish b2 ~label:"softmax.2" ~reduction:true
      ~exports:[ ("s", s_next) ] ~trip_input:"n" ()
  in
  (* loop 3: normalize *)
  let b3 = Builder.create ~use_fp2fx:fp2fx () in
  let e = Builder.load b3 "e" in
  let s = Builder.input b3 "s" in
  let y = Builder.div b3 e s in
  Builder.store b3 "y" y;
  let l3 = Builder.finish b3 ~label:"softmax.3" ~trip_input:"n" () in
  mk ~name:"softmax" ~klass:Kernel.RE ~loops:[ l1; l2; l3 ] ~inputs:[ "x" ]
    ~outputs:[ "e"; "y" ] ()

let softmax_online variant =
  let fp2fx = use_fp2fx variant in
  (* loop 1: online max + rescaled sum.
       m' = max(m, x);  s' = s * exp(m - m') + exp(x - m')
     both exponential arguments are <= 0 and the seed of -50 keeps the
     first iteration's correction term at exp(-50-x) ~ 0. *)
  let b1 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b1 "x" in
  let seed = Builder.const b1 (-50.0) in
  let m = Builder.phi b1 ~init:seed in
  let s = Builder.phi b1 ~init:(Builder.const b1 0.0) in
  let m' = Builder.fmax b1 m x in
  let p = exp_shifted_body b1 variant (Builder.sub b1 x m') in
  let corr = exp_shifted_body b1 variant (Builder.sub b1 m m') in
  let s' = Builder.add b1 (Builder.mul b1 s corr) p in
  Builder.set_phi_next b1 m m';
  Builder.set_phi_next b1 s s';
  let l1 =
    Builder.finish b1 ~label:"softmax_online.1" ~reduction:true
      ~exports:[ ("m", m'); ("s", s') ] ~trip_input:"n" ()
  in
  (* loop 2: y = exp(x - m) / s *)
  let b2 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b2 "x" in
  let m = Builder.input b2 "m" in
  let s = Builder.input b2 "s" in
  let e = exp_shifted_body b2 variant (Builder.sub b2 x m) in
  let y = Builder.div b2 e s in
  Builder.store b2 "y" y;
  let l2 = Builder.finish b2 ~label:"softmax_online.2" ~trip_input:"n" () in
  mk ~name:"softmax_online" ~klass:Kernel.RE ~loops:[ l1; l2 ] ~inputs:[ "x" ]
    ~outputs:[ "y" ] ()

let gelu variant =
  match variant with
  | Picachu Taylor ->
      let b = Builder.create () in
      let x = Builder.load b "x" in
      let p = Builder.lut b "phi" x in
      let y = Builder.mul b x p in
      Builder.store b "y" y;
      let loop = Builder.finish b ~label:"gelu.1" ~trip_input:"n" () in
      mk ~name:"gelu" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()
  | Picachu Nli ->
      (* the non-uniform table holds GeLU itself, not Phi: a single lookup *)
      let b = Builder.create () in
      let x = Builder.load b "x" in
      let y = Builder.lut b "nli.gelu" x in
      Builder.store b "y" y;
      let loop = Builder.finish b ~label:"gelu.1" ~trip_input:"n" () in
      mk ~name:"gelu" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()
  | Baseline ->
      (* tanh form of Table 1, with tanh expanded through exp *)
      let b = Builder.create ~use_fp2fx:false () in
      let x = Builder.load b "x" in
      let x2 = Builder.mul b x x in
      let x3 = Builder.mul b x2 x in
      let cubic = Builder.mul b x3 (Builder.const b 0.044715) in
      let s = Builder.add b x cubic in
      let z = Builder.mul b s (Builder.const b (sqrt (2.0 /. Float.pi))) in
      let two_z = Builder.mul b z (Builder.const b 2.0) in
      let e = Builder.exp_taylor b ~order:taylor_order two_z in
      let num = Builder.sub b e (Builder.const b 1.0) in
      let den = Builder.add b e (Builder.const b 1.0) in
      let th = Builder.div b num den in
      let w = Builder.add b th (Builder.const b 1.0) in
      let half_x = Builder.mul b x (Builder.const b 0.5) in
      let y = Builder.mul b half_x w in
      Builder.store b "y" y;
      let loop = Builder.finish b ~label:"gelu.1" ~trip_input:"n" () in
      mk ~name:"gelu" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let silu_body b variant x =
  match variant with
  | Picachu Nli -> Builder.lut b "nli.silu" x
  | Picachu Taylor | Baseline ->
      let sg = Builder.sigmoid_taylor b ~order:taylor_order x in
      Builder.mul b x sg

let silu variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let x = Builder.load b "x" in
  let y = silu_body b variant x in
  Builder.store b "y" y;
  let loop = Builder.finish b ~label:"silu.1" ~trip_input:"n" () in
  mk ~name:"silu" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let swiglu variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let a = Builder.load b "a" in
  let g = Builder.load b "b" in
  let s = silu_body b variant a in
  let y = Builder.mul b s g in
  Builder.store b "y" y;
  let loop = Builder.finish b ~label:"swiglu.1" ~trip_input:"n" () in
  mk ~name:"swiglu" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "a"; "b" ] ~outputs:[ "y" ] ()

let geglu variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let a = Builder.load b "a" in
  let g = Builder.load b "b" in
  let ge =
    match variant with
    | Picachu Taylor ->
        let p = Builder.lut b "phi" a in
        Builder.mul b a p
    | Picachu Nli -> Builder.lut b "nli.gelu" a
    | Baseline ->
        let x2 = Builder.mul b a a in
        let x3 = Builder.mul b x2 a in
        let cubic = Builder.mul b x3 (Builder.const b 0.044715) in
        let s = Builder.add b a cubic in
        let z = Builder.mul b s (Builder.const b (sqrt (2.0 /. Float.pi))) in
        let two_z = Builder.mul b z (Builder.const b 2.0) in
        let e = Builder.exp_taylor b ~order:taylor_order two_z in
        let num = Builder.sub b e (Builder.const b 1.0) in
        let den = Builder.add b e (Builder.const b 1.0) in
        let th = Builder.div b num den in
        let w = Builder.add b th (Builder.const b 1.0) in
        let half = Builder.mul b a (Builder.const b 0.5) in
        Builder.mul b half w
  in
  let y = Builder.mul b ge g in
  Builder.store b "y" y;
  let loop = Builder.finish b ~label:"geglu.1" ~trip_input:"n" () in
  mk ~name:"geglu" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "a"; "b" ] ~outputs:[ "y" ] ()

let layernorm variant =
  let fp2fx = use_fp2fx variant in
  let b1 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b1 "x" in
  let zero = Builder.const b1 0.0 in
  let _, sum_next = Builder.reduce_simple b1 Op.Add ~init:zero x in
  let x2 = Builder.mul b1 x x in
  let _, sq_next = Builder.reduce_simple b1 Op.Add ~init:zero x2 in
  let l1 =
    Builder.finish b1 ~label:"layernorm.1" ~reduction:true
      ~exports:[ ("sum", sum_next); ("sumsq", sq_next) ] ~trip_input:"n" ()
  in
  let b2 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b2 "x" in
  let mu = Builder.input b2 "mu" in
  let inv = Builder.input b2 "inv_sigma" in
  let d = Builder.sub b2 x mu in
  let y = Builder.mul b2 d inv in
  Builder.store b2 "y" y;
  let pre =
    Kernel.
      [
        ("mu", Sbin (Op.Div, Svar "sum", Svar "n"));
        ( "inv_sigma",
          Sisqrt
            (Sbin
               ( Op.Add,
                 Sbin
                   ( Op.Sub,
                     Sbin (Op.Div, Svar "sumsq", Svar "n"),
                     Sbin (Op.Mul, Svar "mu", Svar "mu") ),
                 Sconst 1e-5 )) );
      ]
  in
  let l2 = Builder.finish b2 ~label:"layernorm.2" ~pre ~trip_input:"n" () in
  mk ~name:"layernorm" ~klass:Kernel.RE ~loops:[ l1; l2 ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let rmsnorm variant =
  let fp2fx = use_fp2fx variant in
  let b1 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b1 "x" in
  let x2 = Builder.mul b1 x x in
  let _, sq_next = Builder.reduce_simple b1 Op.Add ~init:(Builder.const b1 0.0) x2 in
  let l1 =
    Builder.finish b1 ~label:"rmsnorm.1" ~reduction:true
      ~exports:[ ("sumsq", sq_next) ] ~trip_input:"n" ()
  in
  let b2 = Builder.create ~use_fp2fx:fp2fx () in
  let x = Builder.load b2 "x" in
  let inv = Builder.input b2 "inv_rms" in
  let y = Builder.mul b2 x inv in
  Builder.store b2 "y" y;
  let pre =
    Kernel.
      [
        ( "inv_rms",
          Sisqrt (Sbin (Op.Add, Sbin (Op.Div, Svar "sumsq", Svar "n"), Sconst 1e-5)) );
      ]
  in
  let l2 = Builder.finish b2 ~label:"rmsnorm.2" ~pre ~trip_input:"n" () in
  mk ~name:"rmsnorm" ~klass:Kernel.RE ~loops:[ l1; l2 ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let rope variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let x1 = Builder.load b "x1" in
  let x2 = Builder.load b "x2" in
  let a = Builder.load b "angle" in
  let s, c =
    match variant with
    | Picachu Nli ->
        let s = Builder.lut b "nli.sin" a in
        let c = Builder.lut b "nli.cos" a in
        (s, c)
    | Picachu Taylor | Baseline ->
        let s = Builder.sin_taylor b ~order:7 a in
        let c = Builder.cos_taylor b ~order:8 a in
        (s, c)
  in
  let y1 = Builder.sub b (Builder.mul b x1 c) (Builder.mul b x2 s) in
  let y2 = Builder.add b (Builder.mul b x1 s) (Builder.mul b x2 c) in
  Builder.store b "y1" y1;
  Builder.store b "y2" y2;
  let loop = Builder.finish b ~label:"rope.1" ~trip_input:"n" () in
  mk ~name:"rope" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x1"; "x2"; "angle" ]
    ~outputs:[ "y1"; "y2" ] ()

let softcap ?(cap = 30.0) variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let x = Builder.load b "x" in
  let scaled = Builder.mul b x (Builder.const b (1.0 /. cap)) in
  let th =
    match variant with
    | Picachu Nli -> Builder.lut b "nli.tanh" scaled
    | Picachu Taylor | Baseline ->
        (* tanh(z) = (e^{2z} - 1) / (e^{2z} + 1) *)
        let two_z = Builder.mul b scaled (Builder.const b 2.0) in
        let e = Builder.exp_taylor b ~order:taylor_order two_z in
        let num = Builder.sub b e (Builder.const b 1.0) in
        let den = Builder.add b e (Builder.const b 1.0) in
        Builder.div b num den
  in
  let y = Builder.mul b th (Builder.const b cap) in
  Builder.store b "y" y;
  let loop = Builder.finish b ~label:"softcap.1" ~trip_input:"n" () in
  mk ~name:"softcap" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let relu_squared variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let x = Builder.load b "x" in
  let z = Builder.const b 0.0 in
  let c = Builder.cmp b Op.Gt x z in
  let r = Builder.select b c x z in
  let y = Builder.mul b r r in
  Builder.store b "y" y;
  let loop = Builder.finish b ~label:"relu2.1" ~trip_input:"n" () in
  mk ~name:"relu_squared" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let extras variant = [ softcap variant; relu_squared variant ]

let exp_kernel ?(order = taylor_order) variant =
  let b = Builder.create ~use_fp2fx:(use_fp2fx variant) () in
  let x = Builder.load b "x" in
  let e = Builder.exp_taylor b ~order x in
  Builder.store b "y" e;
  let loop = Builder.finish b ~label:"exp.1" ~trip_input:"n" () in
  mk ~name:"exp" ~klass:Kernel.EO ~loops:[ loop ] ~inputs:[ "x" ] ~outputs:[ "y" ] ()

let all variant =
  [
    softmax variant;
    softmax_online variant;
    relu variant;
    gelu variant;
    geglu variant;
    swiglu variant;
    silu variant;
    layernorm variant;
    rmsnorm variant;
    rope variant;
  ]

let by_name variant name = List.find (fun k -> k.Kernel.name = name) (all variant)
