let find = Ghom.find_onto
let leq d d' = Option.is_some (find d d')
let equiv d d' = leq d d' && leq d' d
