module Dag = Prbp_dag.Dag

let qkt ~m ~d =
  let t = Matmul.make ~m1:m ~m2:d ~m3:m in
  { t with Matmul.dag =
      Dag.with_family t.Matmul.dag (Some (Printf.sprintf "attention-qkt:%d:%d" m d)) }

type full = { dag : Prbp_dag.Dag.t; m : int; d : int }

(* Node layout for the full attention DAG, in blocks:
   Q (m*d) | K (m*d) | V (m*d) | score products (m*m*d) | S (m*m) |
   sigma (m) | P (m*m) | out products (m*m*d) | O (m*d). *)
let full ~m ~d =
  if m < 1 || d < 1 then invalid_arg "Attention.full";
  let q i k = (i * d) + k in
  let koff = m * d in
  let k_ j k = koff + (j * d) + k in
  let voff = 2 * m * d in
  let v j k = voff + (j * d) + k in
  let spoff = 3 * m * d in
  let sp i j k = spoff + (((i * m) + j) * d) + k in
  let soff = spoff + (m * m * d) in
  let s i j = soff + (i * m) + j in
  let sigoff = soff + (m * m) in
  let sigma i = sigoff + i in
  let poff = sigoff + m in
  let p i j = poff + (i * m) + j in
  let opoff = poff + (m * m) in
  let op i j k = opoff + (((i * m) + j) * d) + k in
  let ooff = opoff + (m * m * d) in
  let o i k = ooff + (i * d) + k in
  let n = ooff + (m * d) in
  let edges = ref [] in
  let add u w = edges := (u, w) :: !edges in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      for k = 0 to d - 1 do
        (* scores: S_ij = sum_k Q_ik * K_jk *)
        add (q i k) (sp i j k);
        add (k_ j k) (sp i j k);
        add (sp i j k) (s i j);
        (* outputs: O_ik = sum_j P_ij * V_jk *)
        add (p i j) (op i j k);
        add (v j k) (op i j k);
        add (op i j k) (o i k)
      done;
      (* softmax: sigma_i aggregates row i; P_ij from S_ij and sigma_i *)
      add (s i j) (sigma i);
      add (s i j) (p i j);
      add (sigma i) (p i j)
    done
  done;
  { dag = Dag.make ~family:(Printf.sprintf "attention:%d:%d" m d) ~n !edges;
    m; d }

let lower_bound ~m ~d ~r =
  let mf = float_of_int m and df = float_of_int d and rf = float_of_int r in
  if r >= d * d then mf *. mf *. df *. df /. (4. *. rf)
  else
    let s = 2. *. rf in
    rf *. ((mf *. mf *. df /. ((s ** 1.5) +. s)) -. 1.)
